"""Property-based checks of the algebra laws with exact scalars.

Exact (Fraction) coefficients mean the algebraic identities are asserted
as equalities, not approximations; shrinking stays meaningful because the
strategies only produce small integers.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifbundle import exact
from clifbundle.ga import (
    Metric,
    Multivector,
    Signature,
    apply_linear_map,
    clifford,
    even_odd_split,
    grade_project,
    interior,
    wedge,
)
from test_ga import GENERAL_METRICS

DIM = 4
SIGNATURE = Signature(2, 2)
METRIC = SIGNATURE.metric()


@st.composite
def multivectors(draw, n=DIM, max_terms=5):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        mask = draw(st.integers(0, (1 << n) - 1))
        coeff = draw(st.integers(-4, 4))
        terms[mask] = terms.get(mask, 0) + F(coeff)
    return Multivector(n, terms)


@st.composite
def vectors(draw, n=DIM):
    return Multivector(
        n, {1 << i: F(draw(st.integers(-4, 4))) for i in range(n)}
    )


@settings(max_examples=60, deadline=None)
@given(multivectors(), multivectors(), multivectors())
def test_clifford_associative(a, b, c):
    assert clifford(clifford(a, b, METRIC), c, METRIC) == clifford(
        a, clifford(b, c, METRIC), METRIC
    )


@settings(max_examples=60, deadline=None)
@given(multivectors(), multivectors(), multivectors())
def test_clifford_distributive(a, b, c):
    assert clifford(a + b, c, METRIC) == clifford(a, c, METRIC) + clifford(b, c, METRIC)
    assert clifford(c, a + b, METRIC) == clifford(c, a, METRIC) + clifford(c, b, METRIC)


@settings(max_examples=60, deadline=None)
@given(multivectors(), multivectors(), multivectors())
def test_wedge_associative(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=60, deadline=None)
@given(vectors(), vectors())
def test_vector_anticommutator_is_twice_metric(u, v):
    lhs = clifford(u, v, METRIC) + clifford(v, u, METRIC)
    # polarization of the defining relation: a pure scalar
    assert lhs == grade_project(lhs, 0)


@settings(max_examples=60, deadline=None)
@given(vectors(), multivectors())
def test_clifford_of_vector_is_wedge_plus_interior(v, a):
    assert clifford(v, a, METRIC) == wedge(v, a) + interior(v, a, METRIC)


@settings(max_examples=60, deadline=None)
@given(vectors(), vectors(), multivectors())
def test_interior_anticommutation(v, w, a):
    lhs = interior(v, interior(w, a, METRIC), METRIC)
    rhs = interior(w, interior(v, a, METRIC), METRIC)
    assert (lhs + rhs).is_zero()


@settings(max_examples=60, deadline=None)
@given(multivectors())
def test_even_odd_split_reconstructs(a):
    even, odd = even_odd_split(a)
    assert even + odd == a
    assert all(bin(m).count("1") % 2 == 0 for m in even.terms)
    assert all(bin(m).count("1") % 2 == 1 for m in odd.terms)


@settings(max_examples=60, deadline=None)
@given(multivectors())
def test_grade_projections_partition(a):
    total = Multivector.zero(DIM)
    for k in range(DIM + 1):
        total = total + grade_project(a, k)
    assert total == a


@settings(max_examples=40, deadline=None)
@given(multivectors(), multivectors())
def test_even_part_closed_under_product(a, b):
    even_a, _ = even_odd_split(a)
    even_b, _ = even_odd_split(b)
    prod = clifford(even_a, even_b, METRIC)
    _, odd = even_odd_split(prod)
    assert odd.is_zero()


@st.composite
def unimodular(draw, n=DIM):
    """Integer matrix of determinant 1, as a product of elementary shears."""
    q = exact.identity(n)
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.permutations(range(n)))[:2]
        q[:, j] += draw(st.sampled_from((-2, -1, 1, 2))) * q[:, i]
    return q


@settings(max_examples=40, deadline=None)
@given(unimodular(), st.integers(0, (1 << DIM) - 1), st.integers(0, (1 << DIM) - 1))
def test_general_metric_blades_match_diagonal_fast_path(q, ma, mb):
    # Lambda(Q) carries Cl(D) isomorphically onto Cl(G) for G = Q^-T D Q^-1.
    # Q is drawn independently of the frame the implementation finds for G.
    q_inv = exact.rref(np.concatenate([q, exact.identity(DIM)], axis=1))[0][:, DIM:]
    general = Metric.from_gram(q_inv.T @ METRIC.gram @ q_inv)
    a = Multivector(DIM, {ma: F(1)})
    b = Multivector(DIM, {mb: F(1)})
    lhs = clifford(apply_linear_map(a, q), apply_linear_map(b, q), general)
    assert lhs == apply_linear_map(clifford(a, b, METRIC), q)


@settings(max_examples=60, deadline=None)
@given(unimodular(), multivectors())
def test_apply_linear_map_is_the_wedge_of_the_factor_images(q, a):
    images = [Multivector(DIM, {1 << j: q[j, i] for j in range(DIM)}) for i in range(DIM)]
    expected = Multivector.zero(DIM)
    for mask, coeff in a.terms.items():
        term = Multivector.scalar(coeff, DIM)
        for i in range(DIM):
            if mask >> i & 1:
                term = wedge(term, images[i])
        expected = expected + term
    assert apply_linear_map(a, q) == expected


@st.composite
def general_operands(draw, n_vectors, n_multivectors):
    metric = draw(st.sampled_from(GENERAL_METRICS))
    vs = [draw(vectors(n=metric.n)) for _ in range(n_vectors)]
    ms = [draw(multivectors(n=metric.n)) for _ in range(n_multivectors)]
    return (metric, *vs, *ms)


@settings(max_examples=60, deadline=None)
@given(general_operands(1, 1))
def test_general_metric_vector_product_is_wedge_plus_interior(case):
    metric, v, a = case
    assert clifford(v, a, metric) == wedge(v, a) + interior(v, a, metric)


@settings(max_examples=60, deadline=None)
@given(general_operands(0, 3))
def test_general_metric_clifford_associative(case):
    metric, a, b, c = case
    assert clifford(clifford(a, b, metric), c, metric) == clifford(
        a, clifford(b, c, metric), metric
    )
