"""Exterior and Clifford algebra kernel over an arbitrary real metric.

Basis blades are bitmasks over {1..n}; a multivector is a sparse map from
blade mask to coefficient.  Coefficients may be exact (int / Fraction) or
float; exact inputs stay exact through every product, which is what lets
the identity suites assert equality rather than closeness.

Product signs are computed by bit-counting swap parities, O(n) per blade
pair.  Diagonal metrics take a pure mask-arithmetic fast path; general
symmetric metrics go through the grade-recursive definition of the
Clifford product (vector case: v*a = v^a + i_v a).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real

import numpy as np

from . import exact
from .config import check_dimension

FLOAT_PRUNE = 1e-15


class DimensionMismatchError(ValueError):
    """Operands live over spaces of different dimension."""


class MetricError(ValueError):
    """Bad metric: not symmetric, degenerate, or mismatched with operands."""


class GradeError(ValueError):
    """Operation received a multivector of the wrong grade."""


# ---------------------------------------------------------------------------
# signatures and metrics


@dataclass(frozen=True)
class Signature:
    """(p, q): p basis vectors square to +1, then q square to -1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature counts must be >= 0, got ({self.p}, {self.q})")
        check_dimension(self.n)

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def diag(self) -> tuple[int, ...]:
        return (1,) * self.p + (-1,) * self.q

    def metric(self) -> "Metric":
        return Metric.from_signature(self)

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


def _symmetry_residual(gram: np.ndarray) -> float:
    g = np.array(gram, dtype=float)
    return float(np.max(np.abs(g - g.T))) if g.size else 0.0


@dataclass(frozen=True)
class Metric:
    """Symmetric nondegenerate bilinear form, stored as a dense Gram matrix."""

    n: int
    gram: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_dimension(self.n)
        g = np.asarray(self.gram)
        if g.shape != (self.n, self.n):
            raise MetricError(f"gram shape {g.shape} != ({self.n}, {self.n})")
        if _symmetry_residual(g) > 1e-12:
            raise MetricError("gram matrix is not symmetric (residual > 1e-12)")
        if abs(float(np.linalg.det(np.array(g, dtype=float)))) <= 1e-10:
            raise MetricError("gram matrix is degenerate (|det| <= 1e-10)")
        object.__setattr__(self, "gram", g)

    @classmethod
    def euclidean(cls, n: int) -> "Metric":
        return cls.from_diagonal([1] * n)

    @classmethod
    def from_signature(cls, sig: Signature) -> "Metric":
        return cls.from_diagonal(sig.diag)

    @classmethod
    def from_diagonal(cls, diag) -> "Metric":
        n = len(diag)
        g = np.zeros((n, n), dtype=object)
        for i, d in enumerate(diag):
            g[i, i] = d
        return cls(n, g)

    @classmethod
    def from_gram(cls, rows) -> "Metric":
        rows = np.asarray(rows)
        return cls(rows.shape[0], rows)

    @property
    def is_diagonal(self) -> bool:
        g = self.gram
        return all(g[i, j] == 0 for i in range(self.n) for j in range(self.n) if i != j)

    @property
    def diag(self) -> tuple:
        return tuple(self.gram[i, i] for i in range(self.n))

    def entry(self, i: int, j: int):
        """g_ij with 0-based indices."""
        return self.gram[i, j]

    def inverse_gram(self) -> np.ndarray:
        if self.gram.dtype == object:
            return exact.inverse(self.gram)
        return np.linalg.inv(self.gram)


# ---------------------------------------------------------------------------
# blade mask utilities


def grade_of_mask(mask: int) -> int:
    return bin(mask).count("1")


def mask_indices(mask: int) -> list[int]:
    """1-based basis indices present in the mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def indices_to_mask(indices) -> int:
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated basis index {i}")
        mask |= bit
    return mask


def reorder_sign(a: int, b: int) -> int:
    """Parity sign for interleaving blade b's factors into blade a's.

    Counts pairs (i in a, j in b) with i > j; each costs one transposition.
    """
    swaps = 0
    rest = a
    while rest:
        low = rest & -rest
        swaps += bin(b & (low - 1)).count("1")
        rest ^= low
    return -1 if swaps & 1 else 1


def blade_label(mask: int) -> str:
    if mask == 0:
        return "1"
    idx = mask_indices(mask)
    if idx and idx[-1] > 9:
        return "e" + "_".join(str(i) for i in idx)
    return "e" + "".join(str(i) for i in idx)


# ---------------------------------------------------------------------------
# multivectors


def _prune(coeff) -> bool:
    """True if the coefficient should be dropped from the sparse term map."""
    if isinstance(coeff, float):
        return abs(coeff) < FLOAT_PRUNE
    return coeff == 0


@dataclass(frozen=True)
class Multivector:
    """Sparse graded element of the 2^n-dimensional exterior/Clifford carrier."""

    n: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        check_dimension(self.n)
        cleaned = {}
        for mask, coeff in self.terms.items():
            if not 0 <= mask < (1 << self.n):
                raise ValueError(f"blade mask {mask} out of range for n={self.n}")
            if not _prune(coeff):
                cleaned[mask] = coeff
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Multivector":
        return cls(n, {})

    @classmethod
    def scalar(cls, value, n: int) -> "Multivector":
        return cls(n, {0: value})

    @classmethod
    def basis_vector(cls, i: int, n: int, coeff=1) -> "Multivector":
        """e_i, 1-based."""
        if not 1 <= i <= n:
            raise ValueError(f"basis index {i} out of range 1..{n}")
        return cls(n, {1 << (i - 1): coeff})

    @classmethod
    def blade(cls, indices, n: int, coeff=1) -> "Multivector":
        """Basis blade e_{i1...ik} from ascending 1-based indices."""
        return cls(n, {indices_to_mask(indices): coeff})

    @classmethod
    def from_vector(cls, components, n: int | None = None) -> "Multivector":
        comps = list(components)
        n = len(comps) if n is None else n
        return cls(n, {1 << i: c for i, c in enumerate(comps) if not _prune(c)})

    # -- inspection --------------------------------------------------------

    def coeff(self, mask: int):
        return self.terms.get(mask, 0)

    def grades(self) -> set[int]:
        return {grade_of_mask(m) for m in self.terms}

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, k: int) -> bool:
        return all(grade_of_mask(m) == k for m in self.terms)

    def vector_components(self) -> list:
        """Components of a grade-1 multivector as a length-n list."""
        if not self.is_homogeneous(1):
            raise GradeError("not a pure grade-1 multivector")
        return [self.terms.get(1 << i, 0) for i in range(self.n)]

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other: "Multivector"):
        if self.n != other.n:
            raise DimensionMismatchError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, Real):
            other = Multivector.scalar(other, self.n)
        self._check_dim(other)
        terms = dict(self.terms)
        for mask, coeff in other.terms.items():
            terms[mask] = terms.get(mask, 0) + coeff
        return Multivector(self.n, terms)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Real):
            other = Multivector.scalar(other, self.n)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Multivector(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, Real):
            return NotImplemented
        return Multivector(self.n, {m: c * scalar for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        return self * (1 / scalar)

    def __xor__(self, other):
        return wedge(self, other)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def almost_equal(self, other: "Multivector", tol: float = 1e-12) -> bool:
        self._check_dim(other)
        masks = set(self.terms) | set(other.terms)
        return all(abs(self.coeff(m) - other.coeff(m)) <= tol for m in masks)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __str__(self) -> str:
        return format_multivector(self)

    # readable repr for pytest output
    __repr__ = __str__


# ---------------------------------------------------------------------------
# exterior products


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product, extended bilinearly from signed blade unions."""
    a._check_dim(b)
    terms: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            sign = reorder_sign(ma, mb)
            mask = ma | mb
            terms[mask] = terms.get(mask, 0) + sign * ca * cb
    return Multivector(a.n, terms)


def _interior_vector_blade(vcomps, mask: int, metric: Metric) -> dict:
    """Term map of i_v(e_mask) for v given by components, via the Leibniz rule."""
    out: dict = {}
    sign = 1
    for j in mask_indices(mask):
        gvj = 0
        col = j - 1
        for i, vi in enumerate(vcomps):
            if not _prune(vi):
                gvj = gvj + vi * metric.entry(i, col)
        if not _prune(gvj):
            sub = mask ^ (1 << (j - 1))
            out[sub] = out.get(sub, 0) + sign * gvj
        sign = -sign
    return out


def interior(v: Multivector, a: Multivector, metric: Metric) -> Multivector:
    """Interior product i_v a for a grade-1 vector v (grade-lowering antiderivation)."""
    v._check_dim(a)
    if metric.n != v.n:
        raise MetricError(f"metric dimension {metric.n} != operand dimension {v.n}")
    if not v.is_homogeneous(1):
        raise GradeError("interior product requires a homogeneous grade-1 vector")
    vcomps = v.vector_components()
    terms: dict = {}
    for mask, coeff in a.terms.items():
        for sub, c in _interior_vector_blade(vcomps, mask, metric).items():
            terms[sub] = terms.get(sub, 0) + coeff * c
    return Multivector(a.n, terms)


# ---------------------------------------------------------------------------
# Clifford product


def _clifford_blades_diagonal(ma: int, mb: int, diag) -> tuple[int, object]:
    """(mask, coefficient) of e_A * e_B for an orthogonal basis."""
    sign = reorder_sign(ma, mb)
    common = ma & mb
    coeff = sign
    for i in mask_indices(common):
        coeff = coeff * diag[i - 1]
    return ma ^ mb, coeff


def _clifford_diagonal(a: Multivector, b: Multivector, diag) -> Multivector:
    terms: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mask, factor = _clifford_blades_diagonal(ma, mb, diag)
            terms[mask] = terms.get(mask, 0) + ca * cb * factor
    return Multivector(a.n, terms)


def _vee_vector(v: Multivector, m: Multivector, metric: Metric) -> Multivector:
    """Defining formula for grade-1 left factor: v * m = v ^ m + i_v m."""
    return wedge(v, m) + interior(v, m, metric)


def _clifford_blade_general(mask: int, m: Multivector, metric: Metric) -> Multivector:
    n = m.n
    if mask == 0:
        return m
    k = grade_of_mask(mask)
    if k == 1:
        return _vee_vector(Multivector(n, {mask: 1}), m, metric)
    low = mask & -mask
    rest = mask ^ low
    e_low = Multivector(n, {low: 1})
    rest_mv = Multivector(n, {rest: 1})
    # e_mask = e_low ^ e_rest = e_low * e_rest - i_{e_low} e_rest, so multiply
    # through on the right and recurse on strictly lower left-factor grades.
    t1 = _vee_vector(e_low, _clifford_blade_general(rest, m, metric), metric)
    t2 = clifford(interior(e_low, rest_mv, metric), m, metric)
    return t1 - t2


def clifford(a: Multivector, b: Multivector, metric: Metric) -> Multivector:
    """Clifford (geometric) product of multivectors over the given metric."""
    a._check_dim(b)
    if metric.n != a.n:
        raise MetricError(f"metric dimension {metric.n} != operand dimension {a.n}")
    if metric.is_diagonal:
        return _clifford_diagonal(a, b, metric.diag)
    out = Multivector.zero(a.n)
    for mask, coeff in a.terms.items():
        out = out + coeff * _clifford_blade_general(mask, b, metric)
    return out


# ---------------------------------------------------------------------------
# grading, duals, scalar product


def grade_project(a: Multivector, k: int) -> Multivector:
    if not 0 <= k <= a.n:
        raise ValueError(f"grade {k} out of range 0..{a.n}")
    return Multivector(a.n, {m: c for m, c in a.terms.items() if grade_of_mask(m) == k})


def even_odd_split(a: Multivector) -> tuple[Multivector, Multivector]:
    even = {m: c for m, c in a.terms.items() if grade_of_mask(m) % 2 == 0}
    odd = {m: c for m, c in a.terms.items() if grade_of_mask(m) % 2 == 1}
    return Multivector(a.n, even), Multivector(a.n, odd)


def metric_dual(v: Multivector, metric: Metric) -> list:
    """Covector components v_i = sum_j g_ij v^j of a grade-1 multivector."""
    comps = v.vector_components()
    if metric.n != v.n:
        raise MetricError(f"metric dimension {metric.n} != vector dimension {v.n}")
    out = []
    for i in range(metric.n):
        acc = 0
        for j, vj in enumerate(comps):
            if not _prune(vj):
                acc = acc + metric.entry(i, j) * vj
        out.append(acc)
    return out


def metric_raise(components, metric: Metric) -> Multivector:
    """Inverse operation of metric_dual: covector components -> vector."""
    ginv = metric.inverse_gram()
    comps = list(components)
    raised = []
    for i in range(metric.n):
        acc = 0
        for j, cj in enumerate(comps):
            acc = acc + ginv[i, j] * cj
        raised.append(acc)
    return Multivector.from_vector(raised, metric.n)


def scalar_product(u: Multivector, v: Multivector, metric: Metric):
    """g(u, v) for grade-1 multivectors (symmetric; may be negative)."""
    ucomps = u.vector_components()
    dual = metric_dual(v, metric)
    acc = 0
    for ui, vi in zip(ucomps, dual):
        acc = acc + ui * vi
    return acc


def apply_linear_map(mv: Multivector, matrix) -> Multivector:
    """Extend e_i -> sum_j M[j,i] e_j multiplicatively over wedge products."""
    mat = np.asarray(matrix)
    n = mv.n
    images = [
        Multivector(n, {1 << j: mat[j, i] for j in range(n)})
        for i in range(n)
    ]
    out = Multivector.zero(n)
    for mask, coeff in mv.terms.items():
        acc = Multivector.scalar(coeff, n)
        for i in mask_indices(mask):
            acc = wedge(acc, images[i - 1])
        out = out + acc
    return out


# ---------------------------------------------------------------------------
# text form: `1.5*e12 + -2*e3`, blades ascending by mask


def _format_coeff(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    if isinstance(c, float):
        return repr(float(c))
    return str(c)


def format_multivector(a: Multivector) -> str:
    if not a.terms:
        return "0"
    parts = []
    for mask in sorted(a.terms):
        c = a.terms[mask]
        if mask == 0:
            parts.append(_format_coeff(c))
        else:
            parts.append(f"{_format_coeff(c)}*{blade_label(mask)}")
    return " + ".join(parts)


_TERM_RE = re.compile(r"^(?P<coeff>[^*]+?)(?:\*e(?P<idx>[\d_]+))?$")


def parse_multivector(text: str, n: int) -> Multivector:
    """Parse the text form emitted by format_multivector.

    Coefficients parse as Fraction when possible (exact mode round trip),
    falling back to float.
    """
    text = text.strip()
    if text == "0" or not text:
        return Multivector.zero(n)
    terms: dict = {}
    for raw in text.split("+"):
        piece = raw.strip()
        if not piece:
            continue
        m = _TERM_RE.match(piece)
        if not m:
            raise ValueError(f"cannot parse multivector term {piece!r}")
        coeff_text = m.group("coeff").strip()
        try:
            coeff = Fraction(coeff_text)
        except ValueError:
            coeff = float(coeff_text)
        idx_text = m.group("idx")
        if idx_text is None:
            mask = 0
        elif "_" in idx_text:
            mask = indices_to_mask(int(t) for t in idx_text.split("_"))
        else:
            mask = indices_to_mask(int(ch) for ch in idx_text)
        terms[mask] = terms.get(mask, 0) + coeff
    return Multivector(n, terms)


def basis_blades(n: int, grade: int | None = None) -> list[int]:
    """All blade masks for dimension n, optionally filtered by grade."""
    masks = range(1 << n)
    if grade is None:
        return list(masks)
    return [m for m in masks if grade_of_mask(m) == grade]
