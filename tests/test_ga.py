from fractions import Fraction as F

import numpy as np
import pytest

from clifbundle import ga
from clifbundle.ga import (
    DimensionMismatchError,
    GradeError,
    Metric,
    MetricError,
    Multivector,
    Signature,
    apply_linear_map,
    basis_blades,
    clifford,
    even_odd_split,
    format_multivector,
    grade_of_mask,
    grade_project,
    interior,
    metric_dual,
    metric_raise,
    parse_multivector,
    scalar_product,
    wedge,
)


def e(i, n, c=F(1)):
    return Multivector.basis_vector(i, n, c)


def one(n):
    return Multivector.scalar(F(1), n)


# ---------------------------------------------------------------------------
# wedge


def test_wedge_repeated_factor_vanishes():
    assert wedge(e(1, 3), e(1, 3)).is_zero()


def test_wedge_basis_antisymmetry():
    n = 3
    e12 = Multivector.blade([1, 2], n, F(1))
    assert wedge(e(1, n), e(2, n)) == e12
    assert wedge(e(2, n), e(1, n)) == -e12


def test_wedge_bilinear_expansion():
    n = 3
    got = wedge(e(1, n) + e(2, n), e(2, n) + e(3, n))
    expected = (
        Multivector.blade([1, 2], n, F(1))
        + Multivector.blade([1, 3], n, F(1))
        + Multivector.blade([2, 3], n, F(1))
    )
    assert got == expected


def test_wedge_graded_anticommutativity_exhaustive():
    # (-1)^{qr} rule over every blade pair, n = 4, exact
    n = 4
    for ma in basis_blades(n):
        for mb in basis_blades(n):
            a = Multivector(n, {ma: F(1)})
            b = Multivector(n, {mb: F(1)})
            sign = (-1) ** (grade_of_mask(ma) * grade_of_mask(mb))
            assert wedge(a, b) == sign * wedge(b, a)


def test_wedge_associative_exact():
    n = 4
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c = (
            Multivector(
                n, {int(m): F(int(rng.integers(-3, 4))) for m in rng.choice(16, 4, replace=False)}
            )
            for _ in range(3)
        )
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        wedge(e(1, 2), e(1, 3))


# ---------------------------------------------------------------------------
# interior product


def test_interior_vector_gives_metric_value():
    g = Metric.euclidean(3)
    assert interior(e(1, 3), e(1, 3), g) == one(3)


def test_interior_anticommutes():
    n = 4
    g = Metric.euclidean(n)
    rng = np.random.default_rng(9)
    blade = Multivector.blade([1, 2, 4], n, F(3))
    for _ in range(5):
        v = Multivector(n, {1 << i: F(int(rng.integers(-3, 4))) for i in range(n)})
        w = Multivector(n, {1 << i: F(int(rng.integers(-3, 4))) for i in range(n)})
        lhs = interior(v, interior(w, blade, g), g) + interior(w, interior(v, blade, g), g)
        assert lhs.is_zero()


def test_interior_squares_to_zero_exhaustive():
    n = 5
    g = Metric.from_signature(Signature(3, 2))
    for i in range(1, n + 1):
        v = e(i, n)
        for mask in basis_blades(n):
            blade = Multivector(n, {mask: F(1)})
            assert interior(v, interior(v, blade, g), g).is_zero()


def test_interior_graded_leibniz():
    n = 4
    g = Metric.euclidean(n)
    rng = np.random.default_rng(21)
    for _ in range(5):
        v = Multivector(n, {1 << i: F(int(rng.integers(-2, 3))) for i in range(n)})
        alpha = Multivector.blade([1, 2], n, F(2))  # grade q = 2
        beta = Multivector.blade([3, 4], n, F(1)) + Multivector.blade([3], n, F(1))
        lhs = interior(v, wedge(alpha, beta), g)
        rhs = wedge(interior(v, alpha, g), beta) + (-1) ** 2 * wedge(
            alpha, interior(v, beta, g)
        )
        assert lhs == rhs


def test_interior_lowers_grade_on_product():
    g = Metric.euclidean(2)
    assert interior(e(1, 2), wedge(e(1, 2), e(2, 2)), g) == e(2, 2)


def test_interior_requires_grade_one():
    g = Metric.euclidean(2)
    with pytest.raises(GradeError):
        interior(Multivector.blade([1, 2], 2, F(1)), e(1, 2), g)


# ---------------------------------------------------------------------------
# Clifford product


def test_clifford_euclidean_square():
    g = Metric.euclidean(2)
    assert clifford(e(1, 2), e(1, 2), g) == one(2)


def test_clifford_minkowski_timelike_square():
    sig = Signature(3, 1)
    g = sig.metric()
    assert clifford(e(4, 4), e(4, 4), g) == Multivector.scalar(F(-1), 4)


def test_clifford_orthogonal_vectors_anticommute():
    sig = Signature(3, 1)
    g = sig.metric()
    lhs = clifford(e(1, 4), e(2, 4), g) + clifford(e(2, 4), e(1, 4), g)
    assert lhs.is_zero()


def test_clifford_bivector_square_cl20():
    g = Metric.euclidean(2)
    e12 = Multivector.blade([1, 2], 2, F(1))
    assert clifford(e12, e12, g) == Multivector.scalar(F(-1), 2)


# non-diagonal grams, several with zero diagonal entries; in [[0,1],[1,-2]]
# only e1 - e2, not e1 + e2, repairs the zero pivot
GENERAL_METRICS = [
    Metric.from_gram(np.array(rows, dtype=object))
    for rows in (
        [[0, 1], [1, 0]],
        [[0, 1], [1, -2]],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        [[0, 2, 0], [2, 1, 0], [0, 0, -3]],
        [[1, 1, 0], [1, 0, 1], [0, 1, 0]],
        [[F(1, 2), 2, 0, 0], [2, 3, -2, 0], [0, -2, 0, 1], [0, 0, 1, -3]],
    )
]


def test_defining_relations_all_signatures_small():
    # every signature up to n = 4, then the general grams
    signatures = [Signature(p, q) for p in range(5) for q in range(5 - p) if p + q]
    for g in [sig.metric() for sig in signatures] + GENERAL_METRICS:
        n = g.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = clifford(e(i, n), e(j, n), g) + clifford(e(j, n), e(i, n), g)
                assert lhs == Multivector.scalar(2 * F(g.entry(i - 1, j - 1)), n)


@pytest.mark.parametrize("tiny", [1e-9, 1e-200])
def test_defining_relations_float_gram_with_tiny_diagonal(tiny):
    # well conditioned (det -1) but with a tiny leading entry, which an
    # unpivoted elimination frame would turn into entries of size 1/tiny
    g = Metric.from_gram([[tiny, 1.0], [1.0, 1.0]])
    for i in (1, 2):
        for j in (1, 2):
            ei, ej = e(i, 2, 1.0), e(j, 2, 1.0)
            lhs = clifford(ei, ej, g) + clifford(ej, ei, g)
            assert lhs.almost_equal(Multivector.scalar(2 * g.entry(i - 1, j - 1), 2), 1e-12)


def test_clifford_associative_float_random():
    n = 6
    g = Metric.from_signature(Signature(4, 2))
    rng = np.random.default_rng(33)
    for _ in range(5):
        a, b, c = (
            Multivector(n, {int(m): float(x) for m, x in zip(
                rng.choice(1 << n, 8, replace=False), rng.normal(size=8))})
            for _ in range(3)
        )
        lhs = clifford(clifford(a, b, g), c, g)
        rhs = clifford(a, clifford(b, c, g), g)
        assert lhs.almost_equal(rhs, 1e-12)


def test_vector_product_splits_into_wedge_plus_metric():
    n = 3
    g = Metric.euclidean(n)
    rng = np.random.default_rng(35)
    for _ in range(5):
        u = Multivector(n, {1 << i: F(int(rng.integers(-3, 4))) for i in range(n)})
        v = Multivector(n, {1 << i: F(int(rng.integers(-3, 4))) for i in range(n)})
        prod = clifford(u, v, g)
        assert prod == wedge(u, v) + Multivector.scalar(scalar_product(u, v, g), n)


def test_general_metric_agrees_with_diagonalized_product():
    rng = np.random.default_rng(2)
    for trial in range(4):
        n = 3 + (trial % 2)
        a = rng.normal(size=(n, n)) * 0.25
        gram = np.eye(n) + (a + a.T) / 2
        metric = Metric.from_gram(gram)
        lam, qmat = np.linalg.eigh(gram)
        basis_change = qmat @ np.diag(1.0 / np.sqrt(np.abs(lam)))
        diag_metric = Metric.from_diagonal([float(s) for s in np.sign(lam)])
        inv_change = np.linalg.inv(basis_change)
        x = Multivector(n, {int(m): float(v) for m, v in zip(
            rng.choice(1 << n, 5, replace=False), rng.normal(size=5))})
        y = Multivector(n, {int(m): float(v) for m, v in zip(
            rng.choice(1 << n, 5, replace=False), rng.normal(size=5))})
        direct = clifford(x, y, metric)
        mapped = apply_linear_map(
            clifford(
                apply_linear_map(x, inv_change),
                apply_linear_map(y, inv_change),
                diag_metric,
            ),
            basis_change,
        )
        assert direct.almost_equal(mapped, 1e-10)


def test_clifford_metric_dimension_mismatch():
    g = Metric.euclidean(3)
    with pytest.raises(MetricError):
        clifford(e(1, 2), e(1, 2), g)


# ---------------------------------------------------------------------------
# grading and splits


def test_grade_project_filters_terms():
    n = 3
    a = one(n) + e(1, n) + Multivector.blade([1, 2], n, F(1))
    assert grade_project(a, 1) == e(1, n)


def test_grade_projections_partition():
    n = 5
    rng = np.random.default_rng(8)
    a = Multivector(n, {int(m): float(x) for m, x in zip(
        rng.choice(1 << n, 12, replace=False), rng.normal(size=12))})
    total = Multivector.zero(n)
    for k in range(n + 1):
        total = total + grade_project(a, k)
    assert total.almost_equal(a, 1e-15)


def test_grade_project_orthogonal_product_has_no_scalar():
    g = Metric.euclidean(2)
    prod = clifford(e(1, 2), e(2, 2), g)
    assert grade_project(prod, 0).is_zero()


def test_grade_project_range_check():
    with pytest.raises(ValueError):
        grade_project(one(2), 3)


def test_even_odd_split_examples():
    n = 3
    a = one(n) + e(1, n) + Multivector.blade([1, 2], n, F(1))
    even, odd = even_odd_split(a)
    assert even == one(n) + Multivector.blade([1, 2], n, F(1))
    assert odd == e(1, n)
    assert even + odd == a


def test_even_subalgebra_closed_under_product():
    sig = Signature(3, 1)
    g = sig.metric()
    rng = np.random.default_rng(14)
    even_masks = [m for m in basis_blades(4) if grade_of_mask(m) % 2 == 0]
    for _ in range(5):
        a = Multivector(4, {int(m): F(int(rng.integers(-2, 3))) for m in rng.choice(even_masks, 4)})
        b = Multivector(4, {int(m): F(int(rng.integers(-2, 3))) for m in rng.choice(even_masks, 4)})
        prod = clifford(a, b, g)
        _, odd = even_odd_split(prod)
        assert odd.is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_even_subalgebra_dimension(n):
    count = sum(1 for m in basis_blades(n) if grade_of_mask(m) % 2 == 0)
    assert count == 2 ** (n - 1)


# ---------------------------------------------------------------------------
# metric duals and scalar product


def test_metric_dual_euclidean_identity():
    g = Metric.euclidean(3)
    assert metric_dual(e(1, 3), g) == [F(1), 0, 0]


def test_metric_dual_minkowski_flips_time_component():
    g = Signature(3, 1).metric()
    comps = metric_dual(e(4, 4), g)
    assert comps == [0, 0, 0, F(-1)]


def test_metric_dual_round_trip():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 4)) * 0.2
    g = Metric.from_gram(np.eye(4) + (a + a.T) / 2)
    v = Multivector.from_vector(rng.normal(size=4).tolist())
    back = metric_raise(metric_dual(v, g), g)
    assert back.almost_equal(v, 1e-12)


def test_inverse_gram_is_formed_once_per_metric():
    g = Metric.from_gram([[F(2), F(1)], [F(1), F(-1)]])
    inv = g.inverse_gram
    assert g.inverse_gram is inv
    assert all((inv @ g.gram)[i, j] == (i == j) for i in range(2) for j in range(2))
    assert metric_raise(metric_dual(e(1, 2), g), g) == e(1, 2)


def test_metrics_compare_and_hash_by_identity():
    a, b = Metric.euclidean(2), Metric.euclidean(2)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert Signature(3, 1).metric() == Signature(3, 1).metric()
    assert {Signature(3, 1).metric(): "cl31"}[Signature(3, 1).metric()] == "cl31"


def test_scalar_product_examples():
    g = Metric.euclidean(2)
    assert scalar_product(e(1, 2), e(1, 2), g) == F(1)
    gm = Signature(3, 1).metric()
    assert scalar_product(e(4, 4), e(4, 4), gm) == F(-1)


def test_scalar_product_is_grade_zero_of_clifford():
    n = 4
    g = Signature(2, 2).metric()
    rng = np.random.default_rng(16)
    for _ in range(5):
        u = Multivector(n, {1 << i: F(int(rng.integers(-3, 4))) for i in range(n)})
        v = Multivector(n, {1 << i: F(int(rng.integers(-3, 4))) for i in range(n)})
        assert scalar_product(u, v, g) == clifford(u, v, g).coeff(0)


# ---------------------------------------------------------------------------
# algebra dimensions, metric validation, text form


@pytest.mark.parametrize("n", list(range(1, 9)))
def test_blade_counts(n):
    from math import comb

    assert len(basis_blades(n)) == 2**n
    for q in range(n + 1):
        assert len(basis_blades(n, q)) == comb(n, q)


def test_metric_rejects_asymmetric_and_degenerate():
    with pytest.raises(MetricError):
        Metric.from_gram([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(MetricError):
        Metric.from_gram([[1.0, 1.0], [1.0, 1.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_gram_near_the_float_maximum_overflows_no_sum():
    # (g + g^T) / 2 overflowed on these entries and the gram was refused as degenerate
    big = Metric.from_gram([[1e308, 0.0], [0.0, 1e308]])
    assert big.frame[2] == (1e308, 1e308)
    with pytest.raises(MetricError, match="eigenvalue beyond the float range"):
        Metric.from_gram([[1e308, 9e307], [9e307, 1e308]])
    # g - g^T overflowed too
    with pytest.raises(MetricError, match="not symmetric"):
        Metric.from_gram([[1.0, 1e308], [-1e308, 1.0]])


@pytest.mark.parametrize("seed", range(4))
def test_the_halved_gram_gives_the_same_float_frame(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-100, 100)
    g = a + a.T
    g[0, 1] += 1e-14 * g[0, 1]
    eigvals, vecs = np.linalg.eigh((g + g.T) / 2)
    metric = Metric.from_gram(g)
    assert metric.frame[0].tobytes() == vecs.tobytes()
    assert metric.frame[2] == tuple(eigvals.tolist())


def test_exact_metric_nondegeneracy_is_scale_free():
    # exact grams are judged by the pivots of their orthogonal frame, so a
    # small scale is not mistaken for degeneracy
    g = Metric.from_diagonal([F(1, 1000)] * 4)
    assert clifford(e(1, 4), e(1, 4), g) == Multivector.scalar(F(1, 1000), 4)
    with pytest.raises(MetricError):
        Metric.from_gram(np.array([[1, 1], [1, 1]], dtype=object))
    with pytest.raises(MetricError):
        Metric.from_gram(np.array([[0, 0, 1], [0, 0, 2], [1, 2, 0]], dtype=object))


@pytest.mark.parametrize("scale", [1e-3, 1e5])
def test_float_metric_nondegeneracy_is_scale_free(scale):
    # a multiple of the identity has condition number 1 at any scale
    g = Metric.from_gram(scale * np.eye(4))
    assert clifford(e(1, 4, 1.0), e(1, 4, 1.0), g).almost_equal(
        Multivector.scalar(scale, 4), 1e-12 * scale
    )


def test_float_metric_symmetry_gate_is_scale_free():
    # rounding leaves an asymmetry of ~3e-11 in this 4e5-scale gram; relative
    # to max |g_ij| it is ~1e-16, so the gram is symmetric
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    gram = q @ np.diag([1e5, 2e5, -3e5, 4e5]) @ q.T
    assert np.max(np.abs(gram - gram.T)) > 1e-12
    assert Metric.from_gram(gram).n == 4
    with pytest.raises(MetricError):
        Metric.from_gram(1e5 * np.array([[1.0, 0.5], [0.2, 1.0]]))


@pytest.mark.parametrize("gram", [[[1.0, 1.0], [1.0, 1.0]], np.diag([1.0, 1e-14])])
def test_float_metric_rejects_ill_conditioned_grams(gram):
    with pytest.raises(MetricError):
        Metric.from_gram(gram)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_metric_rejects_non_finite_entries(bad):
    with pytest.raises(MetricError):
        Metric.from_gram([[1.0, 0.0], [0.0, bad]])


def test_orthogonal_frame_diagonalizes_zero_diagonal_gram():
    gram = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=object)
    p, p_inv, d = Metric.from_gram(gram).frame
    assert (p @ p_inv == np.eye(3)).all()
    assert (p.T @ gram @ p == np.diag(d)).all()
    assert all(x != 0 for x in d)


def test_dimension_ceiling(monkeypatch):
    monkeypatch.setattr(ga, "MAX_DIMENSION", 4)
    with pytest.raises(ValueError):
        Signature(3, 2)
    monkeypatch.undo()
    Signature(3, 2)  # fine with the default ceiling


def test_dimension_ceiling_reads_no_environment(monkeypatch):
    # the ceiling is the constant ga.MAX_DIMENSION, which no environment variable sets
    monkeypatch.setenv("CLIFBUNDLE_NMAX", "4")
    assert Signature(3, 2).n == 5
    with pytest.raises(ValueError, match="n <= 10"):
        Signature(6, 5)


def test_text_form_round_trip_exact():
    mv = Multivector(3, {0: F(1, 2), 0b011: F(-2), 0b100: F(3, 7)})
    text = format_multivector(mv)
    assert parse_multivector(text, 3) == mv


def test_text_form_example_shape():
    mv = Multivector(3, {0b011: 1.5, 0b100: -2.0})
    assert format_multivector(mv) == "1.5*e12 + -2.0*e3"


def test_text_form_round_trip_float():
    rng = np.random.default_rng(18)
    mv = Multivector(4, {int(m): float(x) for m, x in zip(
        rng.choice(16, 6, replace=False), rng.normal(size=6))})
    assert parse_multivector(format_multivector(mv), 4).almost_equal(mv, 0.0)
