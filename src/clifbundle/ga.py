"""Exterior and Clifford algebra kernel over an arbitrary real metric.

Basis blades are bitmasks over {1..n}; a multivector is a sparse map from
blade mask to coefficient.  Coefficients may be exact (int / Fraction) or
float; exact inputs stay exact through every product, which is what lets
the identity suites assert equality rather than closeness.  Signature,
Metric and Multivector refuse a dimension n outside 1..MAX_DIMENSION.

There is one Clifford-product kernel, a pair loop over an orthogonal
basis: e_A e_B = sign(A, B) w[A & B] e_(A xor B), with w[m] the product of
the frame's squares D_i over the bits of m.  The sign of a pair is the
parity of the bits of B under ``_suffix_parity(A)``, a mask formed once per
left blade, so the loop's cost follows the operands' terms and never 2^n.
Each Metric keeps its weights w and the blade images of its frame maps,
each formed on first use.  A general symmetric metric reaches the kernel
through its orthogonal frame: a congruence P^T G P = D, found once per
Metric, exactly by symmetric elimination over Fractions for an exact gram
and by an eigendecomposition for a float gram.  Operands are mapped into
the frame by P^-1, multiplied there and mapped back by P.  When every
coefficient and the metric are rational, the loop runs on integer
numerators over one denominator per operand and each output coefficient
becomes one Fraction; float operands take the same loop with denominator 1
and float weights.

``wedge``, ``interior`` and ``apply_linear_map`` form their signs with
``reorder_sign`` and read none of these caches, so the laws that relate
them to the Clifford product check independent code.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from numbers import Rational, Real

import numpy as np

from . import exact
from .numerics import within

FLOAT_PRUNE = 1e-15


class DimensionMismatchError(ValueError):
    """Operands live over spaces of different dimension."""


class MetricError(ValueError):
    """Bad metric: not symmetric, degenerate, or mismatched with operands."""


class GradeError(ValueError):
    """Operation received a multivector of the wrong grade."""


# ---------------------------------------------------------------------------
# signatures and metrics

# ceiling on the dimension n of the vector space; 2^n blades per algebra
MAX_DIMENSION = 10


def check_dimension(n: int) -> int:
    """Validate a vector-space dimension against MAX_DIMENSION, read at call time."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"dimension must be an integer, got {type(n).__name__}")
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must satisfy 1 <= n <= {MAX_DIMENSION}, got {n}")
    return n


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

    @cache
    def metric(self) -> "Metric":
        """The one Metric of this signature, so its product caches are shared."""
        return Metric.from_signature(self)

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


def _orthogonal_frame(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Exact (P, P^-1, D) with P^T G P = diag(D), by symmetric elimination.

    Runs over the Fractions of the gram's exact values, so no pivot
    tolerance enters.  A zero pivot g_kk is repaired by f_k <- f_k + s f_j
    for some j with g_kj != 0, the sign s making the new pivot nonzero.
    Raises MetricError if the gram is degenerate.
    """
    n = gram.shape[0]
    g = exact.frac_matrix(gram)
    g = (g + g.T) * Fraction(1, 2)
    p, p_inv = exact.identity(n), exact.identity(n)

    def add_multiple(dst: int, src: int, c):
        # basis change f_dst <- f_dst + c f_src: congruence on G, column
        # operation on P, and the inverse row operation on P^-1
        g[:, dst] += c * g[:, src]
        g[dst, :] += c * g[src, :]
        p[:, dst] += c * p[:, src]
        p_inv[src, :] -= c * p_inv[dst, :]

    for k in range(n):
        if g[k, k] == 0:
            j = next((j for j in range(k + 1, n) if g[k, j] != 0), None)
            if j is None:
                raise MetricError("gram matrix is degenerate (zero pivot)")
            add_multiple(k, j, 1 if 2 * g[k, j] + g[j, j] != 0 else -1)
        for i in range(k + 1, n):
            if g[k, i] != 0:
                add_multiple(i, k, -g[k, i] / g[k, k])
    return p, p_inv, tuple(g[k, k] for k in range(n))


@dataclass(frozen=True, eq=False)
class Metric:
    """Symmetric nondegenerate bilinear form, stored as a dense Gram matrix.

    Compared and hashed by identity: a generated __eq__ would compare the
    numpy gram, whose truth value is ambiguous.  Signature.metric() shares
    one Metric per signature.

    ``frame`` is its orthogonal frame (P, P^-1, D).  When every gram entry is
    an int or a Fraction it is exact and its pivots alone decide degeneracy;
    a float gram gets its orthonormal eigenbasis, P^-1 = P^T.  The product
    kernel's weights and blade images are cached on the Metric when first
    used, so the gram is held as a read-only copy.
    """

    n: int
    gram: np.ndarray = field(repr=False)
    frame: tuple = field(init=False, repr=False)

    def __post_init__(self):
        check_dimension(self.n)
        g = np.array(self.gram)
        g.flags.writeable = False
        if g.shape != (self.n, self.n):
            raise MetricError(f"gram shape {g.shape} != ({self.n}, {self.n})")
        gf = np.array(g, dtype=float)
        if not np.isfinite(gf).all():
            raise MetricError("gram matrix has a non-finite entry")
        # halved, no sum below overflows; the gates are scale-free, so the halves decide alike
        half = gf / 2
        if not within(np.max(np.abs(half - half.T)), np.max(np.abs(half))):
            raise MetricError("gram matrix is not symmetric (residual > 1e-12 max |g_ij|)")
        object.__setattr__(self, "gram", g)
        if self.exact:
            frame = _orthogonal_frame(g)
        else:
            # an orthonormal eigenbasis keeps the float frame as well
            # conditioned as the gram; elimination can blow up on a small pivot
            eigvals, vecs = np.linalg.eigh(half + half.T)
            size = np.abs(eigvals)
            if not np.isfinite(size).all():
                raise MetricError("gram matrix has an eigenvalue beyond the float range")
            if within(size.min(), size.max()):
                raise MetricError("gram matrix is degenerate (min |eigenvalue| <= 1e-12 max)")
            frame = (vecs, vecs.T, tuple(eigvals.tolist()))
        object.__setattr__(self, "frame", frame)

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

    @cached_property
    def exact(self) -> bool:
        """True when every gram entry, and so the frame, is rational."""
        return all(isinstance(x, Rational) for x in self.gram.flat)

    @cached_property
    def is_diagonal(self) -> bool:
        g = self.gram
        return all(g[i, j] == 0 for i in range(self.n) for j in range(self.n) if i != j)

    @property
    def diag(self) -> tuple:
        return tuple(self.gram[i, i] for i in range(self.n))

    def entry(self, i: int, j: int):
        """g_ij with 0-based indices."""
        return self.gram[i, j]

    @cached_property
    def inverse_gram(self) -> np.ndarray:
        """G^-1 = P diag(D)^-1 P^T, exact for an exact gram; formed once per Metric."""
        p, _, d = self.frame
        return (p / np.asarray(d)) @ p.T

    # -- the product kernel's caches, each formed on first use ----------------

    @cached_property
    def _squares(self) -> tuple:
        """D_i of the orthogonal basis the product runs in: the gram's diagonal if diagonal."""
        return self.diag if self.is_diagonal else self.frame[2]

    @cached_property
    def _exact_weights(self) -> tuple[dict, int]:
        """(w, dw) with prod_{i in m} D_i = w[m] / dw for every mask m, dw = prod den(D_i)."""
        squares = [_ratio(x) for x in self._squares]

        def entry(m):
            i = m.bit_length() - 1
            num, den = squares[i]
            return w[m ^ (1 << i)] // den * num

        dw = math.prod(den for _, den in squares)
        w = _Lazy(entry, {0: dw})
        return w, dw

    @cached_property
    def _float_weights(self) -> dict:
        """prod_{i in m} D_i as a float, multiplied in ascending i for a float frame."""
        if self.exact:
            w, dw = self._exact_weights
            return _Lazy(lambda m: w[m] / dw)
        squares = [float(x) for x in self._squares]

        def entry(m):
            i = m.bit_length() - 1
            return w[m ^ (1 << i)] * squares[i]

        w = _Lazy(entry, {0: 1})
        return w

    @cached_property
    def _to_frame(self) -> "_BladeImages":
        return _BladeImages(self.frame[1], self.exact)

    @cached_property
    def _from_frame(self) -> "_BladeImages":
        return _BladeImages(self.frame[0], self.exact)


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


def _suffix_parity(a: int) -> int:
    """Mask of the bits j with an odd number of bits of a above j.

    reorder_sign(a, b) is -1 exactly when b & _suffix_parity(a) has an odd
    bit count: each bit j of b passes the bits of a above it.  The mask is
    the xor of a >> 1, a >> 2, ..., folded in doubling shifts.
    """
    t = a >> 1
    shift = 1
    while t >> shift:
        t ^= t >> shift
        shift <<= 1
    return t


class _Lazy(dict):
    """A table whose entry for a key is formed by ``entry(key)`` on first lookup and kept."""

    def __init__(self, entry, start=()):
        super().__init__(start)
        self.entry = entry

    def __missing__(self, key):
        value = self[key] = self.entry(key)
        return value


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational scalar as Python ints."""
    return int(x.numerator), int(x.denominator)


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


def _interior_vector_blade(vdual, mask: int) -> dict:
    """Term map of i_v(e_mask) for v given by its covector components g(v, e_j)."""
    out: dict = {}
    sign = 1
    for j in mask_indices(mask):
        gvj = vdual[j - 1]
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
    vdual = metric_dual(v, metric)
    terms: dict = {}
    for mask, coeff in a.terms.items():
        for sub, c in _interior_vector_blade(vdual, mask).items():
            terms[sub] = terms.get(sub, 0) + coeff * c
    return Multivector(a.n, terms)


# ---------------------------------------------------------------------------
# Clifford product


class _BladeImages:
    """Images of the basis blades under a linear map M, e_i -> sum_j M[j,i] e_j.

    An exact M is held as integer columns over one common denominator
    ``den``, so image(A) has integer coefficients over den^grade(A); a float
    M has den = 1.  ``images[A]`` is formed on first use from its prefix,
    image(A) = col(lowest bit of A) ^ image(rest), and kept.
    ``apply_linear_map`` is the independent reference for these images.
    """

    def __init__(self, matrix: np.ndarray, exact: bool):
        n = matrix.shape[0]
        rows = matrix.tolist()
        if exact:
            flat, self.den = _over_common_denominator(x for row in rows for x in row)
            rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        else:
            self.den = 1
        self.columns = [
            [(1 << j, rows[j][i]) for j in range(n) if not _prune(rows[j][i])] for i in range(n)
        ]
        self.images = _Lazy(self._image, {0: {0: 1}})

    def _image(self, mask: int) -> dict:
        low = mask & -mask
        rest = self.images[mask ^ low]
        out: dict = {}
        for bit, cj in self.columns[low.bit_length() - 1]:
            below = bit - 1  # _suffix_parity(bit)
            for m, c in rest.items():
                if not m & bit:
                    v = cj * c
                    out[m | bit] = out.get(m | bit, 0) + (-v if (m & below).bit_count() & 1 else v)
        return {m: c for m, c in out.items() if not _prune(c)}

    def apply(self, terms: dict, den: int, exact: bool) -> tuple[dict, int]:
        """sum_A c_A image(A) for the multivector with coefficients c_A / den.

        Exact terms are integers, and so is the result, over
        den * self.den^(top grade); float terms have den = 1 and give floats
        over 1.
        """
        top = max(map(grade_of_mask, terms), default=0)
        if exact:
            scales = [self.den ** (top - k) for k in range(top + 1)]
        else:
            scales = [1 / self.den**k for k in range(top + 1)]
        out: dict = {}
        for mask, c in terms.items():
            c = c * scales[grade_of_mask(mask)]
            for m, v in self.images[mask].items():
                out[m] = out.get(m, 0) + c * v
        return (out, den * self.den**top) if exact else (out, 1)


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Rational values as integer numerators over the lcm of their denominators."""
    ratios = [_ratio(x) for x in values]
    den = math.lcm(*(d for _, d in ratios))
    return [num * (den // d) for num, d in ratios], den


def _integer_terms(terms: dict) -> tuple[dict, int] | None:
    """A term map as integer numerators over one denominator; None unless every coefficient is rational."""
    if not all(isinstance(c, Rational) for c in terms.values()):
        return None
    nums, den = _over_common_denominator(terms.values())
    return dict(zip(terms, nums)), den


def clifford(a: Multivector, b: Multivector, metric: Metric) -> Multivector:
    """Clifford (geometric) product of multivectors over the given metric.

    The kernel is one pair loop, e_A e_B = sign(A, B) w[A & B] e_(A xor B),
    on the metric's orthogonal frame; a non-diagonal metric maps the operands
    in by P^-1 and the product out by P.  Exact operands on an exact metric
    run on integer numerators, each with one denominator, and every output
    coefficient becomes one Fraction (an int when the operands hold ints
    and the denominator is 1).  Any other operands run the same loop on
    their own coefficients, with float weights.
    """
    a._check_dim(b)
    if metric.n != a.n:
        raise MetricError(f"metric dimension {metric.n} != operand dimension {a.n}")
    n = a.n
    ia = _integer_terms(a.terms) if metric.exact else None
    ib = _integer_terms(b.terms) if ia is not None else None
    exact = ib is not None
    if exact:
        (ta, da), (tb, db) = ia, ib
        w, dw = metric._exact_weights
    else:
        (ta, da), (tb, db) = (a.terms, 1), (b.terms, 1)
        w, dw = metric._float_weights, 1
    diagonal = metric.is_diagonal
    if not diagonal:
        ta, da = metric._to_frame.apply(ta, da, exact)
        tb, db = metric._to_frame.apply(tb, db, exact)
    terms: dict = {}
    for ma, ca in ta.items():
        odd = _suffix_parity(ma)
        for mb, cb in tb.items():
            m = ma ^ mb
            c = ca * cb * w[ma & mb]
            terms[m] = terms.get(m, 0) + (-c if (mb & odd).bit_count() & 1 else c)
    den = da * db * dw
    if not diagonal:
        terms, den = metric._from_frame.apply(terms, den, exact)
    if not exact:
        return Multivector(n, terms)
    as_int = den == 1 and all(type(c) is int for c in (*a.terms.values(), *b.terms.values()))
    return Multivector(n, {m: c if as_int else Fraction(c, den) for m, c in terms.items() if c})


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
    raised = metric.inverse_gram @ np.array(list(components), dtype=object)
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
        [(1 << j, mat[j, i]) for j in range(n) if not _prune(mat[j, i])]
        for i in range(n)
    ]
    out: dict = {}
    for mask, coeff in mv.terms.items():
        # the wedge of the factor images, term by term as wedge() forms it
        acc = {0: coeff}
        for i in mask_indices(mask):
            nxt: dict = {}
            for ma, ca in acc.items():
                for mb, cb in images[i - 1]:
                    if not ma & mb:
                        key = ma | mb
                        nxt[key] = nxt.get(key, 0) + reorder_sign(ma, mb) * ca * cb
            acc = {m: c for m, c in nxt.items() if not _prune(c)}
        for m, c in acc.items():
            out[m] = out.get(m, 0) + c
    return Multivector(n, out)


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
