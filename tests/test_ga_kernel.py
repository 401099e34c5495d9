"""The Clifford-product kernel against its independent references.

`clifford` runs one pair loop fed by a parity mask per left blade, and by
frame weights and blade images cached on the Metric.  These tests hold
each piece to the code it replaces (`reorder_sign`, `apply_linear_map`)
and the whole product to a copy of the plain Fraction kernel, check that
`wedge`, `interior` and `apply_linear_map` read none of them, and that a
sparse product's cost does not grow with 2^n.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from clifbundle import ga
from clifbundle.ga import (
    Metric,
    Multivector,
    Signature,
    apply_linear_map,
    clifford,
    grade_of_mask,
    interior,
    mask_indices,
    reorder_sign,
    wedge,
)
from test_ga import GENERAL_METRICS


def reference_clifford(a, b, metric):
    """The plain kernel: a reorder_sign pair loop over the frame, maps by apply_linear_map."""

    def diagonal(a, b, diag):
        terms = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                factor = reorder_sign(ma, mb)
                for i in mask_indices(ma & mb):
                    factor = factor * diag[i - 1]
                terms[ma ^ mb] = terms.get(ma ^ mb, 0) + ca * cb * factor
        return Multivector(a.n, terms)

    if metric.is_diagonal:
        return diagonal(a, b, metric.diag)
    p, p_inv, d = metric.frame
    return apply_linear_map(diagonal(apply_linear_map(a, p_inv), apply_linear_map(b, p_inv), d), p)


def operand(rng, n, exact, dense):
    masks = range(1 << n) if dense else rng.sample(range(1 << n), min(6, 1 << n))
    if exact:
        return Multivector(n, {m: F(rng.randint(-9, 9), rng.randint(1, 4)) for m in masks})
    return Multivector(n, {m: rng.uniform(-1.0, 1.0) for m in masks})


def operand_pairs(seed, n):
    rng = random.Random(seed)
    for exact in (True, False):
        for dense in (False, True):
            yield operand(rng, n, exact, dense), operand(rng, n, exact, dense), exact


DIAGONAL_METRICS = [Signature(p, n - p).metric() for n in (1, 3, 5, 6) for p in (0, n // 2, n)] + [
    Metric.from_diagonal([F(1, 2), 3, F(-2, 3), -1]),
    Metric.from_gram(np.diag([1.0, -1.0, -1.0, 1.0, 1.0])),
]

# exact grams whose frame squares D are not all +-1
EXACT_GENERAL_METRICS = [
    Metric.from_gram(np.array(rows, dtype=object))
    for rows in (
        [[2, 1, 0], [1, F(1, 3), 1], [0, 1, -3]],
        [[F(1, 2), 1, 0, 0, F(1, 4)], [1, 0, 1, 0, 0], [0, 1, 3, -2, 0],
         [0, 0, -2, 1, 1], [F(1, 4), 0, 0, 1, -2]],
    )
] + GENERAL_METRICS


def float_general_metrics():
    rng = np.random.default_rng(5)
    out = []
    for n in (3, 5):
        a = rng.normal(size=(n, n)) * 0.3
        out.append(Metric.from_gram(np.diag(rng.choice([1.0, -1.0], n)) + (a + a.T) / 2))
    return out


def test_exact_general_metrics_have_squares_other_than_unit():
    for metric in EXACT_GENERAL_METRICS[:2]:
        assert any(abs(d) != 1 for d in metric.frame[2])


@pytest.mark.parametrize("n", range(1, 7))
def test_suffix_parity_gives_reorder_sign_for_every_pair(n):
    for a in range(1 << n):
        odd = ga._suffix_parity(a)
        assert [-1 if (b & odd).bit_count() & 1 else 1 for b in range(1 << n)] == [
            reorder_sign(a, b) for b in range(1 << n)
        ]


@pytest.mark.parametrize("metric", [m for m in DIAGONAL_METRICS if m.exact] + EXACT_GENERAL_METRICS)
def test_exact_products_equal_the_reference_term_for_term(metric):
    for seed in range(2):
        for a, b, exact in operand_pairs(seed, metric.n):
            if not exact:
                continue
            got = clifford(a, b, metric)
            assert got.terms == reference_clifford(a, b, metric).terms
            assert all(type(c) in (int, F) for c in got.terms.values())


def test_integer_operands_on_a_signature_stay_integers():
    metric = Signature(2, 2).metric()
    a = Multivector(4, {0b0011: 2, 0b0101: -3})
    got = clifford(a, a, metric)
    assert got.terms == reference_clifford(a, a, metric).terms
    assert all(type(c) is int for c in got.terms.values())


@pytest.mark.parametrize("metric", DIAGONAL_METRICS)
def test_float_products_on_diagonal_metrics_are_bit_identical(metric):
    for seed in range(2):
        for a, b, exact in operand_pairs(seed, metric.n):
            if exact:
                continue
            got = clifford(a, b, metric)
            ref = reference_clifford(a, b, metric)
            assert {m: float(c).hex() for m, c in got.terms.items()} == {
                m: float(c).hex() for m, c in ref.terms.items()
            }


@pytest.mark.parametrize("metric", EXACT_GENERAL_METRICS + float_general_metrics())
def test_float_products_on_general_metrics_agree_at_roundoff(metric):
    for seed in range(2):
        for a, b, exact in operand_pairs(seed, metric.n):
            if exact and metric.exact:
                continue
            got = clifford(a, b, metric)
            ref = reference_clifford(a, b, metric)
            assert all(type(c) is float for c in got.terms.values())
            assert got.almost_equal(ref, 1e-12 * max(ref.max_abs(), 1.0))


def test_float_operands_on_an_exact_metric_give_floats():
    metric = EXACT_GENERAL_METRICS[0]
    a = Multivector(3, {0b011: 0.25, 0b100: -1.5})
    b = Multivector(3, {0b001: F(1, 3), 0b110: 2})
    for x, y in ((a, a), (a, b), (b, a)):
        got = clifford(x, y, metric)
        assert all(type(c) is float for c in got.terms.values())
        assert got.almost_equal(reference_clifford(x, y, metric), 1e-12)


@pytest.mark.parametrize("metric", EXACT_GENERAL_METRICS + float_general_metrics())
def test_blade_images_match_apply_linear_map(metric):
    n = metric.n
    for images, matrix in ((metric._to_frame, metric.frame[1]), (metric._from_frame, metric.frame[0])):
        for mask in range(1 << n):
            scale = F(1, images.den ** grade_of_mask(mask))
            got = Multivector(n, {m: c * scale for m, c in images.images[mask].items()})
            ref = apply_linear_map(Multivector(n, {mask: F(1) if metric.exact else 1.0}), matrix)
            if metric.exact:
                assert got == ref
            else:
                assert got.almost_equal(ref, 1e-12)


def test_wedge_interior_and_linear_maps_read_no_kernel_cache(monkeypatch):
    metric = EXACT_GENERAL_METRICS[1]
    n = metric.n
    rng = random.Random(3)
    v = Multivector(n, {1 << i: F(rng.randint(-5, 5), 3) for i in range(n)})
    a = operand(rng, n, exact=True, dense=True)
    matrix = metric.frame[1]
    expected = (wedge(v, a), interior(v, a, metric), apply_linear_map(a, matrix))

    def refuse(*args):
        raise AssertionError("kernel cache read")

    monkeypatch.setattr(ga, "_suffix_parity", refuse)
    monkeypatch.setattr(ga._BladeImages, "apply", refuse)
    assert (wedge(v, a), interior(v, a, metric), apply_linear_map(a, matrix)) == expected
    with pytest.raises(AssertionError, match="kernel cache read"):
        clifford(v, a, metric)


def test_one_metric_per_signature():
    assert Signature(3, 1).metric() is Signature(3, 1).metric()
    assert Signature(3, 1).metric() is not Signature(1, 3).metric()


def test_vector_product_split_holds_through_the_caches():
    # v a = v ^ a + i_v a, the kernel against wedge and interior
    for metric in EXACT_GENERAL_METRICS + DIAGONAL_METRICS[:-1]:
        n = metric.n
        rng = random.Random(n)
        v = Multivector(n, {1 << i: F(rng.randint(-5, 5), rng.randint(1, 3)) for i in range(n)})
        a = operand(rng, n, exact=True, dense=True)
        assert clifford(v, a, metric) == wedge(v, a) + interior(v, a, metric)


@pytest.mark.parametrize("exact_gram", [False, True])
def test_sparse_products_at_large_n_touch_only_their_terms(monkeypatch, exact_gram):
    # n = 40 has 2^40 blades: any table over every mask would not fit
    monkeypatch.setenv("CLIFBUNDLE_NMAX", "40")
    n = 40
    if exact_gram:
        # tridiagonal with 1/3 couplings: a general frame whose squares are not +-1
        rows = np.zeros((n, n), dtype=object)
        for i in range(n):
            rows[i, i] = 1 if i % 2 else -1
            if i:
                rows[i, i - 1] = rows[i - 1, i] = F(1, 3)
        metric = Metric.from_gram(rows)
    else:
        metric = Signature(20, 20).metric()
    rng = random.Random(40)
    u, v = (
        Multivector(n, {1 << i: F(rng.randint(-5, 5), 3) for i in rng.sample(range(n), 4)})
        for _ in range(2)
    )
    assert clifford(u, v, metric) == wedge(u, v) + interior(u, v, metric)
    # a pair of vectors meets in no bit or in one, so only those weights are formed
    weights, _ = metric._exact_weights
    assert len(weights) <= 1 + n
