"""Spinor representations of Cl(p,q) via minimal left ideals, exactly.

The primitive idempotent f multiplies, in ascending mask order, factors
(1 + e_A)/2 of commuting +1-square blades outside f's support, and stops at
the classified minimal ideal dimension; C and H keep f = 1.  It never
squares f, so a caller's f f = f check tests it.  spinor_representation
runs idempotent -> left ideal Cl f -> gammas.  The ideal's basis, e_b f with
one b per coset of f's blade support, is in reduced row echelon form, so the
gammas are read off at its pivot masks; each image is confirmed by exact
reconstruction, which also proves the ideal closed.  The construction runs
over Fractions.  Each GammaSet holds one integer form, N^mu = D g^mu with D
the lcm of the entry denominators, over Python ints; the anticommutator and
sigma checks run on the products N^mu N^nu, formed once, and return
Fractions.  verify_iso_table reads every expected value from one (p - q)
mod 8 table of types, R(m), R(m)+R(m), C(m), H(m) or H(m)+H(m), and
certifies the span of the blade images by their rank modulo a prime.
"""

from __future__ import annotations

import math
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
    blade_label,
    clifford,
    grade_of_mask,
    mask_indices,
    metric_raise,
)
from .report import Check


class ClosureError(RuntimeError):
    """A subspace expected to be invariant failed to close under the action."""


HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# regular representation


def multivector_coords(v: Multivector) -> np.ndarray:
    """Coordinates of v in the ascending blade-mask basis (length 2^n)."""
    out = np.full(1 << v.n, Fraction(0), dtype=object)
    for mask, c in v.terms.items():
        out[mask] = Fraction(c) if not isinstance(c, float) else c
    return out


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
# blade combinatorics used by the idempotent construction


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
    """The primitive idempotent of one signature and the blades of its factors."""

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
        labels = ", ".join(f"(1 + {blade_label(m)})/2" for m in self.factors)
        return f"idempotent {labels}, ideal dimension {self.ideal_dimension}"


# Radon-Hurwitz numbers r_0 .. r_7; r_{i+8} = r_i + 4 for every integer i
RADON_HURWITZ = (0, 1, 2, 2, 3, 3, 3, 3)


def minimal_ideal_dimension(sig: Signature) -> int:
    """Real dimension 2^(n-k) of a minimal left ideal, k = q - r_{q-p} (Lounesto, ch. 17)."""
    i = sig.q - sig.p
    return 1 << (sig.n - sig.q + RADON_HURWITZ[i % 8] + 4 * (i // 8))


def find_primitive_idempotent(sig: Signature) -> IdempotentReport:
    """Greedy product of commuting factors (1 + e_A)/2 down to the minimal ideal.

    In ascending mask order, takes each +1-square blade e_A that commutes
    with every factor so far and lies outside f's support H, the group the
    factors' blades generate; such a factor halves the ideal and never gives
    0.  Stops once 2^n / |H| reaches minimal_ideal_dimension; C and H keep f = 1.
    """
    metric = sig.metric()
    n = sig.n
    one = Multivector.scalar(Fraction(1), n)
    target = minimal_ideal_dimension(sig)
    f, factors = one, []
    for mask in range(1, 1 << n):
        if len(f.terms) * target >= 1 << n:
            break
        if (
            mask not in f.terms
            and blade_square_sign(mask, sig.diag) == 1
            and all(blades_commute(mask, m) for m in factors)
        ):
            f = clifford(f, (one + Multivector(n, {mask: Fraction(1)})) * HALF, metric)
            factors.append(mask)
    # right multiplication by an idempotent f is a projection, so the
    # ideal's dimension is its trace, 2^n times the scalar part of f
    dim = int(Fraction(f.coeff(0)) * (1 << n))
    return IdempotentReport(sig, f, dim, tuple(factors))


def minimal_left_ideal(f: Multivector, metric: Metric) -> list[Multivector]:
    """Basis e_b f / (e_b f)[b] of Cl f, one b per coset b + H, H the support of f.

    Needs an orthogonal basis and e_h f = +-f for every h in H, as for a
    product of commuting factors (1 +- e_A)/2; otherwise raises ValueError.
    Then e_b f has support b + H, so the vectors of distinct cosets are
    independent, and with b the lowest mask of its coset they are the
    reduced row echelon basis of Cl f, pivots at the b.
    """
    n = f.n
    blade = lambda mask: Multivector(n, {mask: Fraction(1)})
    group = list(f.terms)
    if not metric.is_diagonal or f.is_zero() or any(
        clifford(blade(h), f, metric) not in (f, -f) for h in group
    ):
        raise ValueError("no coset basis: e_h f = +-f must hold for every blade h in f's support")
    basis = []
    for b in coset_representatives(group, n):
        w = clifford(blade(b), f, metric)
        basis.append(w * (1 / Fraction(w.coeff(b))))
    return basis


def coset_representatives(group, n: int) -> list[int]:
    """The lowest mask b of each coset b + H of a blade group H (masks under xor)."""
    reps, covered = [], set()
    for b in range(1 << n):
        if b not in covered:
            covered.update(b ^ h for h in group)
            reps.append(b)
    return reps


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
    def denominator(self) -> int:
        """D, the lcm of the denominators of every gamma entry."""
        return math.lcm(*(x.denominator for g in self.gammas for x in g.flat))

    @cached_property
    def numerators(self) -> list[np.ndarray]:
        """The integer matrices N^mu = D g^mu, object arrays of Python ints."""
        d = self.denominator
        to_int = np.frompyfunc(lambda x: x.numerator * (d // x.denominator), 1, 1)
        return [to_int(g) for g in self.gammas]

    @cached_property
    def products(self) -> list[list[np.ndarray]]:
        """The table P[mu][nu] = N^mu N^nu = D^2 g^mu g^nu, formed once per set."""
        return gamma_products(self.numerators)

    def anticommutator_residuals(self) -> Fraction:
        """Max |{g^mu, g^nu} - 2 g^{mu nu} I| entry over all pairs; exact zero expected."""
        return anticommutator_residual(self.products, self.metric_diag, self.denominator**2)


def gamma_products(gammas) -> list[list[np.ndarray]]:
    """The table P[mu][nu] = g^mu g^nu of a gamma sequence."""
    return [[a @ b for b in gammas] for a in gammas]


def anticommutator_residual(products, diag, scale=1):
    """Largest entry of |P[mu][nu] + P[nu][mu] - 2 diag[mu] delta^{mu nu} scale I| / scale.

    ``products`` is a ``gamma_products`` table of gammas scaled by sqrt(scale).
    Integer (object) matrices are compared in integers and give the exact
    residual as a Fraction.  Float matrices give a float, NaN if any entry
    is NaN, and may be stacked fields of shape (*extents, m, m).
    """
    exact_mode = products[0][0].dtype == object
    m = products[0][0].shape[-1]
    eye = np.eye(m, dtype=int).astype(object) if exact_mode else np.eye(m)
    pairs = []
    for mu in range(len(diag)):
        for nu in range(mu, len(diag)):
            target = (2 * diag[mu] * scale if mu == nu else 0) * eye
            pairs.append(np.abs(products[mu][nu] + products[nu][mu] - target).max())
    # np.max, unlike max, keeps a NaN wherever it sits in the list
    return Fraction(max(pairs), scale) if exact_mode else float(np.max(pairs))


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
    """Primitive idempotent -> minimal left ideal -> gammas read off at its pivots.

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


# below 2^26, so an int64 sum of up to 2^11 products of two residues cannot overflow
SPAN_PRIME = 67_108_859


def _blade_images(factors, reduce=lambda m: m) -> list[np.ndarray]:
    """M_A = M^{a_1} (M^{a_2} ... M^{a_k}) for every mask A, one product per blade."""
    images = [np.eye(factors[0].shape[0], dtype=factors[0].dtype)]
    for mask in range(1, 1 << len(factors)):
        low = (mask & -mask).bit_length() - 1
        images.append(reduce(factors[low] @ images[mask & (mask - 1)]))
    return images


def algebra_span_dimension(gamma_set: GammaSet) -> int:
    """Dimension of the matrix span of all 2^n blade products of the gammas, exact.

    The blade images of the integer gammas N^mu = D g^mu, reduced mod a
    prime, are eliminated in int64.  Their rank mod p is at most their rank
    over Q, which is at most both the matrix shape and the number of
    distinct lines the exact images lie on; a rank mod p that reaches
    either bound is the span.  Otherwise the exact rank of the images decides.
    """
    residues = [(num % SPAN_PRIME).astype(np.int64) for num in gamma_set.numerators]
    images = _blade_images(residues, lambda m: m % SPAN_PRIME)
    rows = np.stack([m.ravel() for m in images])
    rank = _rank_mod_prime(rows)
    if rank == min(rows.shape):
        return rank
    lines = {}
    for image in _blade_images(gamma_set.numerators):
        row = image.ravel()
        support = np.flatnonzero(row)
        if support.size:
            scale = math.gcd(*row[support]) * (1 if row[support[0]] > 0 else -1)
            lines.setdefault(tuple(row // scale), row)
    if rank == len(lines):
        return rank
    return exact.rank(np.stack(list(lines.values())))


def _rank_mod_prime(m: np.ndarray) -> int:
    """Rank over GF(SPAN_PRIME) of an int64 matrix of residues; eliminates in place."""
    r = 0
    for c in range(m.shape[1]):
        if r == m.shape[0]:
            break
        rows = r + np.flatnonzero(m[r:, c])
        if rows.size:
            m[[r, rows[0]]] = m[[rows[0], r]]
            factors = m[rows[1:], c] * pow(int(m[r, c]), -1, SPAN_PRIME) % SPAN_PRIME
            m[rows[1:]] = (m[rows[1:]] - np.outer(factors, m[r])) % SPAN_PRIME
            r += 1
    return r


# ---------------------------------------------------------------------------
# sigma generators and spinor derivatives


@dataclass(frozen=True)
class SigmaSet:
    """Quarter-commutators sigma^{mu nu} = [g^mu, g^nu] / 4, held in integers.

    ``numerators[(mu, nu)]`` is C^{mu nu} = P[mu][nu] - P[nu][mu] of the
    integer product table, so sigma^{mu nu} = C^{mu nu} / scale, scale = 4 D^2.
    """

    n: int
    dim: int
    scale: int
    numerators: dict = field(repr=False)

    def mat(self, mu: int, nu: int) -> np.ndarray:
        """sigma^{mu nu} as an exact Fraction matrix, built on each call."""
        return self.numerators[(mu, nu)] * Fraction(1, self.scale)


def sigma_generators(gamma_set: GammaSet) -> SigmaSet:
    """Commutator numerators read from the set's integer product table."""
    p = gamma_set.products
    numerators = {
        (mu, nu): p[mu][nu] - p[nu][mu]
        for mu in range(gamma_set.n)
        for nu in range(gamma_set.n)
    }
    return SigmaSet(
        n=gamma_set.n, dim=gamma_set.dim, scale=4 * gamma_set.denominator**2,
        numerators=numerators,
    )


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
# isomorphism table verification

# (p - q) mod 8 -> the type of Cl(p,q) as a real algebra, K(m) or K(m)+K(m)
# (Lounesto, chs. 16-17; the mod 8 periodicity of Atiyah, Bott and Shapiro)
ALGEBRA_TYPES = ("R", "R+R", "R", "C", "H", "H+H", "H", "C")
DIVISION_DIM = {"R": 1, "C": 2, "H": 4}
REFERENCE_SIGNATURES = ((0, 1), (0, 2), (1, 1), (2, 0), (3, 1), (1, 3))


def algebra_type(sig: Signature) -> tuple[str, int, int, int]:
    """(type, dim_R K, ideal, span) of Cl(p,q), read from the table alone.

    span = dim_R K(m), the span of the blade images on one minimal ideal
    (2^n, or 2^(n-1) for a double type); ideal = dim_R K^m = sqrt(dim_R K * span).
    """
    kind = ALGEBRA_TYPES[(sig.p - sig.q) % 8]
    division = DIVISION_DIM[kind[0]]
    span = (1 << sig.n) // len(kind.split("+"))
    ideal = math.isqrt(division * span)
    return kind.replace(kind[0], f"{kind[0]}({ideal // division})"), division, ideal, span


def sandwich_rank(f: Multivector, metric: Metric) -> int:
    """Exact rank of {f e_b f}, one b per coset of f's blade support: dim_R f Cl f.

    With e_h f = +-f for h in the support (as minimal_left_ideal requires),
    every f e_A f is +- one of these.
    """
    n = f.n
    sandwiches = [
        clifford(clifford(f, Multivector(n, {b: Fraction(1)}), metric), f, metric)
        for b in coset_representatives(f.terms, n)
    ]
    masks = sorted(set().union(*(s.terms for s in sandwiches)))
    return exact.rank(exact.frac_matrix([[s.coeff(m) for m in masks] for s in sandwiches]))


def classification_rows(sig: Signature) -> list[Check]:
    """Four rows for one signature, each expected value read from algebra_type."""
    kind, division, ideal, span = algebra_type(sig)
    name = f"cl{sig.p}{sig.q}"
    report, gamma_set = spinor_representation(sig)
    # matrices of a basis that is not a left ideal represent nothing
    closed = gamma_set.closure_failures == 0
    residual = gamma_set.anticommutator_residuals()
    rank = sandwich_rank(report.idempotent, sig.metric())
    found = algebra_span_dimension(gamma_set)
    return [
        Check(
            f"{name}-minimal-ideal",
            0 if report.ideal_dimension == gamma_set.dim == ideal else 1, 0,
            f"minimal left ideal of {sig} has dimension {ideal}",
            details=report.note,
        ),
        Check(
            f"{name}-primitive", 0 if rank == division else 1, 0,
            f"{sig} = {kind}, so f Cl f = {kind[0]}: rank{{f e_b f}} = {division}",
            details=f"rank {rank}, one b per coset of f's support (exact)",
        ),
        Check(
            f"{name}-gamma-relations", residual, 0,
            "g^mu g^nu + g^nu g^mu = 2 g^{mu nu} I (exact)", holds=closed,
        ),
        Check(
            f"{name}-blade-span", 0 if closed and found == span else 1, 0,
            f"the 2^n blade images span {span} = dim_R {kind.split('+')[0]}",
            details=f"span dimension {found} of {span}",
        ),
    ]


def _quaternion_checks() -> Check:
    metric = Signature(0, 2).metric()
    mul = lambda a, b: clifford(a, b, metric)
    minus_one = Multivector.scalar(Fraction(-1), 2)
    i, j = (Multivector.basis_vector(a, 2, Fraction(1)) for a in (1, 2))
    k = mul(i, j)
    ok = mul(mul(i, j), k) == minus_one and all(
        mul(a, a) == minus_one and mul(a, b) == c == -mul(b, a)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
    )
    return Check(
        "cl02-quaternion-table",
        0 if ok else 1, 0,
        "i^2 = j^2 = k^2 = ijk = -1 with i=e1, j=e2, k=e1e2",
        details="Cl(0,2) reproduces the quaternion structure constants",
    )


def _even_subalgebra_checks() -> list[Check]:
    metric = Signature(3, 1).metric()
    blade = lambda mask: Multivector(4, {mask: Fraction(1)})
    even_masks = [m for m in basis_blades(4) if grade_of_mask(m) % 2 == 0]
    omega = blade(0b1111)
    sq = clifford(omega, omega, metric)
    central = all(
        clifford(omega, blade(m), metric) == clifford(blade(m), omega, metric) for m in even_masks
    )
    # closure of the even part under the product
    closed = all(
        grade_of_mask(mask) % 2 == 0
        for ma in even_masks
        for mb in even_masks
        for mask in clifford(blade(ma), blade(mb), metric).terms
    )
    return [
        Check(
            "cl31-even-dimension",
            0 if len(even_masks) == 8 else 1, 0,
            "even subalgebra of Cl(3,1) has dimension 2^(n-1) = 8 = dim_R M_2(C)",
            details=f"counted {len(even_masks)} even blades",
        ),
        Check(
            "cl31-even-central-imaginary",
            0 if sq == Multivector.scalar(Fraction(-1), 4) and central else 1, 0,
            "e1234 squares to -1 and is central in the even subalgebra",
            details=f"omega^2 = {sq}",
        ),
        Check(
            "cl31-even-closed", 0 if closed else 1, 0,
            "the even subalgebra is closed under the Clifford product",
        ),
    ]


def verify_iso_table(signatures=None) -> list[Check]:
    """Classification rows for each (p, q) (default REFERENCE_SIGNATURES), plus
    the quaternion table of Cl(0,2) and the even subalgebra of Cl(3,1)."""
    rows = [_quaternion_checks(), *_even_subalgebra_checks()]
    for p, q in signatures or REFERENCE_SIGNATURES:
        rows.extend(classification_rows(Signature(p, q)))
    return rows
