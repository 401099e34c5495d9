import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

from clifbundle import exact, spinor
from clifbundle.ga import Metric, Multivector, Signature, basis_blades, clifford, mask_indices
from clifbundle.spinor import (
    ClosureError,
    algebra_span_dimension,
    algebra_type,
    anticommutator_residual,
    blade_square_sign,
    blades_commute,
    find_primitive_idempotent,
    gamma_products,
    gamma_set_for_signature,
    minimal_ideal_dimension,
    minimal_left_ideal,
    multivector_coords,
    regular_rep,
    sigma_generators,
    spinor_cov_deriv,
    spinor_lie_deriv,
    spinor_rep_matrices,
    spinor_representation,
    verify_iso_table,
)


def frac_eye(n):
    return exact.identity(n)


def mat_equal(a, b) -> bool:
    return all(x == y for x, y in zip(np.ravel(a), np.ravel(b)))


# ---------------------------------------------------------------------------
# regular representation


def test_regular_rep_cl01_left_mult_by_e1():
    sig = Signature(0, 1)
    e1 = Multivector.basis_vector(1, 1, F(1))
    rho = regular_rep(e1, sig.metric())
    # basis (1, e1): e1*1 = e1, e1*e1 = -1
    assert mat_equal(rho, exact.frac_matrix([[0, -1], [1, 0]]))


def test_regular_rep_of_unit_is_identity():
    for sig in (Signature(2, 0), Signature(1, 1), Signature(0, 2)):
        rho = regular_rep(Multivector.scalar(F(1), sig.n), sig.metric())
        assert mat_equal(rho, frac_eye(1 << sig.n))


def test_regular_rep_is_homomorphism():
    sig = Signature(2, 0)
    metric = sig.metric()
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = Multivector(2, {int(m): F(int(rng.integers(-3, 4))) for m in range(4)})
        b = Multivector(2, {int(m): F(int(rng.integers(-3, 4))) for m in range(4)})
        lhs = regular_rep(clifford(a, b, metric), metric)
        rhs = regular_rep(a, metric) @ regular_rep(b, metric)
        assert mat_equal(lhs, rhs)


def test_regular_rep_is_faithful_on_blades():
    sig = Signature(1, 2)
    metric = sig.metric()
    for mask in basis_blades(3):
        rho = regular_rep(Multivector(3, {mask: F(1)}), metric)
        assert not exact.is_zero(rho)


# ---------------------------------------------------------------------------
# idempotents and minimal ideals


def test_cl11_idempotent_from_defining_computation():
    # (1+e1)/2 squares to itself because e1^2 = +1
    sig = Signature(1, 1)
    metric = sig.metric()
    f = (Multivector.scalar(F(1), 2) + Multivector.basis_vector(1, 2, F(1))) * F(1, 2)
    assert clifford(f, f, metric) == f
    report = find_primitive_idempotent(sig)
    assert not report.whole_algebra
    assert report.ideal_dimension == 2
    assert clifford(report.idempotent, report.idempotent, metric) == report.idempotent


@pytest.mark.parametrize(
    "p,q,expected_dim,whole",
    [
        (1, 1, 2, False),
        (2, 0, 2, False),
        (3, 1, 4, False),
        (0, 1, 2, True),
        (0, 2, 4, True),
        (1, 3, 8, False),
    ],
)
def test_minimal_ideal_dimensions(p, q, expected_dim, whole):
    report = find_primitive_idempotent(Signature(p, q))
    assert report.whole_algebra == whole
    assert report.ideal_dimension == expected_dim
    # the division algebras C and H keep f = 1, whose ideal is everything
    assert (report.idempotent == Multivector.scalar(F(1), p + q)) == whole


def test_search_stops_where_an_exhaustive_search_ends(monkeypatch):
    # with the stop rule disabled the loop runs over every mask; no further
    # commuting +1-square blade may fit, so it keeps the same idempotent and
    # the classified dimension is the smallest the construction reaches
    signatures = [Signature(p, n - p) for n in range(1, 6) for p in range(n + 1)]
    stopped = {sig: find_primitive_idempotent(sig) for sig in signatures}
    classified = {sig: minimal_ideal_dimension(sig) for sig in signatures}
    monkeypatch.setattr(spinor, "minimal_ideal_dimension", lambda sig: 0)
    for sig in signatures:
        exhaustive = find_primitive_idempotent(sig)
        assert exhaustive == stopped[sig], sig
        assert exhaustive.ideal_dimension == classified[sig], sig


def test_cl01_has_no_nontrivial_idempotent_by_direct_solve():
    # f = a + b e1 with f^2 = f over the reals: (a^2 - b^2) + 2ab e1 = a + b e1
    # forces b = 0 (else a = 1/2 and a^2 - b^2 = 1/2 has no real b), so f in {0, 1}
    solutions = []
    for a_num in range(-4, 5):
        for b_num in range(-4, 5):
            a, b = F(a_num, 2), F(b_num, 2)
            if a * a - b * b == a and 2 * a * b == b:
                solutions.append((a, b))
    assert set(solutions) == {(F(0), F(0)), (F(1), F(0))}


def test_minimal_left_ideal_basis_and_invariance():
    sig = Signature(1, 1)
    metric = sig.metric()
    report = find_primitive_idempotent(sig)
    basis = minimal_left_ideal(report.idempotent, metric)
    assert len(basis) == 2
    assert spinor_rep_matrices(basis, metric, sig).closure_failures == 0


@pytest.mark.parametrize("p,q", [(1, 1), (3, 1), (2, 0)])
def test_simple_algebra_ideal_dimension_squares_to_algebra_dimension(p, q):
    sig = Signature(p, q)
    report = find_primitive_idempotent(sig)
    assert report.ideal_dimension**2 == 1 << sig.n


def test_non_invariant_span_is_reported():
    # span{1, e1} in Cl(1,1) is not a left ideal: e2 * 1 = e2 leaves it
    sig = Signature(1, 1)
    metric = sig.metric()
    basis = [Multivector.scalar(F(1), 2), Multivector.basis_vector(1, 2, F(1))]
    assert spinor_rep_matrices(basis, metric, sig).closure_failures == 2


def test_ideal_closed_under_left_multiplication_cl31():
    sig = Signature(3, 1)
    metric = sig.metric()
    report = find_primitive_idempotent(sig)
    basis = minimal_left_ideal(report.idempotent, metric)
    assert len(basis) == 4
    assert spinor_rep_matrices(basis, metric, sig).closure_failures == 0


# ---------------------------------------------------------------------------
# the direct construction against dense elimination and the classification


def signatures_up_to(n_max):
    return [Signature(p, n - p) for n in range(1, n_max + 1) for p in range(n + 1)]


def blade(mask, n):
    return Multivector(n, {mask: F(1)})


@pytest.mark.parametrize("sig", signatures_up_to(6), ids=str)
def test_coset_basis_is_the_rref_of_the_dense_ideal(sig):
    # the reference: exact row reduction of the dense matrix of e_b f, every b
    metric = sig.metric()
    f = find_primitive_idempotent(sig).idempotent
    rows = np.stack([multivector_coords(clifford(blade(b, sig.n), f, metric))
                     for b in range(1 << sig.n)])
    red, pivots = exact.rref(rows)
    basis = minimal_left_ideal(f, metric)
    assert len(basis) == len(pivots)
    for w, row in zip(basis, red):
        assert mat_equal(multivector_coords(w), row)


# (p - q) mod 8 -> real dimension of f Cl f, the division algebra R, C or H
DIVISION_DIM = (1, 1, 1, 2, 4, 4, 4, 2)


@pytest.mark.parametrize("sig", signatures_up_to(6), ids=str)
def test_idempotent_is_primitive(sig):
    # f is primitive exactly when f Cl f is a division algebra; its real
    # dimension comes from the R/C/H table, not from the construction's stop
    metric = sig.metric()
    f = find_primitive_idempotent(sig).idempotent
    sandwiches = np.stack([
        multivector_coords(clifford(clifford(f, blade(a, sig.n), metric), f, metric))
        for a in range(1 << sig.n)
    ])
    assert exact.rank(sandwiches) == DIVISION_DIM[(sig.p - sig.q) % 8]


@pytest.mark.parametrize("sig", signatures_up_to(8), ids=str)
def test_factors_are_independent_and_multiply_to_f(sig):
    # each listed factor halves the ideal, so none is redundant
    report = find_primitive_idempotent(sig)
    assert 1 << (sig.n - len(report.factors)) == report.ideal_dimension
    metric = sig.metric()
    one = Multivector.scalar(F(1), sig.n)
    product = one
    for mask in report.factors:
        product = clifford(product, (one + blade(mask, sig.n)) * F(1, 2), metric)
    assert product == report.idempotent


@pytest.mark.parametrize("sig", signatures_up_to(7), ids=str)
def test_representation_is_closed_exact_and_minimal(sig):
    gs = spinor_representation(sig)[1]
    assert gs.closure_failures == 0
    assert gs.anticommutator_residuals() == 0
    assert gs.dim == minimal_ideal_dimension(sig)


def test_coset_basis_rejects_an_idempotent_off_the_blade_group():
    # v = (3 e1 + 4 e2)/5 squares to 1, so (1 + v)/2 is idempotent, but its
    # support {1, e1, e2} is no blade group: e1 f is not +-f
    sig = Signature(2, 0)
    metric = sig.metric()
    v = Multivector(2, {0b01: F(3, 5), 0b10: F(4, 5)})
    f = (Multivector.scalar(F(1), 2) + v) * F(1, 2)
    assert clifford(f, f, metric) == f
    with pytest.raises(ValueError, match="coset basis"):
        minimal_left_ideal(f, metric)
    # e_b e_h is a single blade only in an orthogonal basis
    skew = Metric.from_gram(np.array([[1, F(1, 2)], [F(1, 2), 1]], dtype=object))
    e1 = Multivector.basis_vector(1, 2, F(1))
    with pytest.raises(ValueError, match="coset basis"):
        minimal_left_ideal((Multivector.scalar(F(1), 2) + e1) * F(1, 2), skew)


# ---------------------------------------------------------------------------
# gamma matrices


def test_cl31_gammas_satisfy_relations_exactly():
    gs = gamma_set_for_signature(Signature(3, 1))
    assert gs.dim == 4
    assert gs.anticommutator_residuals() == 0
    eta = gs.metric_diag
    assert eta == (1, 1, 1, -1)
    for mu in range(4):
        sq = gs.gammas[mu] @ gs.gammas[mu]
        assert mat_equal(sq, eta[mu] * frac_eye(4))


def test_cl11_gammas_span_all_2x2_matrices():
    gs = gamma_set_for_signature(Signature(1, 1))
    assert gs.dim == 2
    assert gs.anticommutator_residuals() == 0
    assert algebra_span_dimension(gs) == 4


def test_cl31_gammas_span_all_4x4_matrices():
    gs = gamma_set_for_signature(Signature(3, 1))
    assert algebra_span_dimension(gs) == 16


def test_restriction_of_unit_is_identity():
    sig = Signature(1, 1)
    metric = sig.metric()
    report = find_primitive_idempotent(sig)
    basis = minimal_left_ideal(report.idempotent, metric)
    span = np.stack([multivector_coords(w) for w in basis], axis=1)
    cols = []
    for w in basis:
        rhs = multivector_coords(clifford(Multivector.scalar(F(1), 2), w, metric))
        aug = np.concatenate([span, rhs.reshape(-1, 1)], axis=1)
        red, pivots = exact.rref(aug)
        cols.append(red[: len(basis), len(basis):][:, 0])
    assert mat_equal(np.stack(cols, axis=1), frac_eye(2))


def test_different_idempotents_give_equivalent_size_reps():
    # equivalent representations have equal characters: compare the traces
    # of the represented blades e_A = e_a1 ... e_ak, for every A
    sig = Signature(1, 1)
    metric = sig.metric()
    one = Multivector.scalar(F(1), 2)
    f1 = (one + Multivector.basis_vector(1, 2, F(1))) * F(1, 2)
    e12 = Multivector.blade([1, 2], 2, F(1))
    f2 = (one + e12) * F(1, 2)
    assert clifford(f2, f2, metric) == f2  # e12^2 = +1 in Cl(1,1)
    reps = []
    for f in (f1, f2):
        basis = minimal_left_ideal(f, metric)
        reps.append(spinor_rep_matrices(basis, metric, sig))
    assert reps[0].dim == reps[1].dim
    traces = []
    for rep in reps:
        traces.append([])
        for mask in basis_blades(2):
            mat = frac_eye(rep.dim)
            for i in mask_indices(mask):
                mat = mat @ rep.gammas[i - 1]
            traces[-1].append(sum(mat[k, k] for k in range(rep.dim)))
    assert traces[0] == traces[1] == [2, 0, 0, 0]


def test_gamma_relations_exact_across_signatures():
    # representative sample with p+q up to 6, exact in every case
    for p, q in [(1, 1), (2, 0), (0, 2), (3, 1), (2, 2), (1, 3), (3, 2), (4, 1), (3, 3)]:
        gs = gamma_set_for_signature(Signature(p, q))
        assert gs.anticommutator_residuals() == 0, (p, q)


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(1, 7) for p in range(n + 1)])
def test_gammas_are_signed_permutations_symmetric_by_their_square(p, q):
    # what lets minkowski_gamma_set read the gammas without a change of basis:
    # N^mu = g^mu has one +-1 per row and column, and N^mu = g_mumu (N^mu)^T
    gs = gamma_set_for_signature(Signature(p, q))
    assert gs.denominator == 1
    for square, num in zip(gs.metric_diag, gs.numerators):
        mat = num.astype(np.int64)
        assert np.array_equal(np.abs(mat).sum(axis=0), np.ones(gs.dim))
        assert np.array_equal(np.abs(mat).sum(axis=1), np.ones(gs.dim))
        assert set(np.unique(mat)) <= {-1, 0, 1}
        assert np.array_equal(mat, square * mat.T)


def test_ideal_dimensions_match_classification_n5_n6():
    # Cl(3,2) = 2 x M4(R): 4; Cl(4,1) = M4(C): 8; Cl(3,3) = M8(R): 8
    assert find_primitive_idempotent(Signature(3, 2)).ideal_dimension == 4
    assert find_primitive_idempotent(Signature(4, 1)).ideal_dimension == 8
    assert find_primitive_idempotent(Signature(3, 3)).ideal_dimension == 8


# ---------------------------------------------------------------------------
# iso table


def test_iso_table_all_pass():
    rows = verify_iso_table()
    failures = [r.name for r in rows if not r.passed]
    assert failures == []
    names = {r.name for r in rows}
    for p, q in [(0, 1), (0, 2), (1, 1), (2, 0), (3, 1), (1, 3)]:
        for row in ("minimal-ideal", "primitive", "gamma-relations", "blade-span", "centre"):
            assert f"cl{p}{q}-{row}" in names
    assert len(rows) == 6 * 5


@pytest.mark.parametrize(
    "p,q,kind",
    [(0, 1, "C(1)"), (0, 2, "H(1)"), (1, 0, "R(1)+R(1)"), (2, 0, "R(2)"), (3, 0, "C(2)"),
     (0, 3, "H(1)+H(1)"), (3, 1, "R(4)"), (1, 3, "H(2)"), (4, 1, "C(4)"), (3, 2, "R(4)+R(4)")],
)
def test_type_table_names_the_classical_algebras(p, q, kind):
    assert algebra_type(Signature(p, q))[0] == kind


def test_type_table_ideal_matches_the_radon_hurwitz_formula():
    # two independent formulas for one dimension, over every signature p+q <= 10
    sigs = signatures_up_to(10)
    assert len(sigs) == 65
    for sig in sigs:
        assert algebra_type(sig)[2] == minimal_ideal_dimension(sig), sig


def test_centre_row_passes_on_every_signature_up_to_ten():
    sigs = signatures_up_to(10)
    assert [sig for sig in sigs if not spinor.centre_row(sig).passed] == []


@pytest.mark.parametrize(
    "p,q,algebra",
    # odd n: the algebra itself; even n: Cl(p,q-1), or Cl(0,p-1) when q = 0
    [(0, 1, "Cl(0,1) = C(1)"), (1, 0, "Cl(1,0) = R(1)+R(1)"), (2, 0, "Cl(0,1) = C(1)"),
     (3, 1, "Cl(3,0) = C(2)"), (4, 0, "Cl(0,3) = H(1)+H(1)"), (2, 2, "Cl(2,1) = R(2)+R(2)")],
)
def test_centre_row_reads_the_odd_rank_algebra_from_the_table(p, q, algebra):
    row = spinor.centre_row(Signature(p, q))
    assert row.passed and f" {algebra}, " in row.relation


def test_table_rows_catch_a_construction_that_stops_early(monkeypatch):
    # with the stop moved to the whole algebra, f = 1 is not primitive in R(2)
    monkeypatch.setattr(spinor, "minimal_ideal_dimension", lambda sig: 1 << sig.n)
    passed = {r.name: r.passed for r in spinor.classification_rows(Signature(1, 1))}
    assert passed == {
        "cl11-minimal-ideal": False, "cl11-primitive": False,
        "cl11-gamma-relations": True, "cl11-blade-span": True, "cl11-centre": True,
    }


def dense_span_rank(gs) -> int:
    """The exact rank of the dense Fraction blade images, one product chain per blade."""
    rows = []
    for mask in basis_blades(gs.n):
        mat = frac_eye(gs.dim)
        for i in mask_indices(mask):
            mat = mat @ gs.gammas[i - 1]
        rows.append(np.ravel(mat))
    return exact.rank(np.stack(rows))


@pytest.mark.parametrize("second, exact_calls", [("repeated", 0), ("sum", 1)])
def test_short_span_takes_the_exact_fallback(monkeypatch, second, exact_calls):
    # g^2 := g^1 repeats lines of blade images; g^2 := g^1 + g^3 adds a
    # dependent line, which only the exact rank can count
    gs = gamma_set_for_signature(Signature(3, 1))
    g = list(gs.gammas)
    g[1] = g[0] if second == "repeated" else g[0] + g[2]
    short = dataclasses.replace(gs, gammas=g)
    expected = dense_span_rank(short)
    calls = []
    rank = exact.rank
    monkeypatch.setattr(exact, "rank", lambda m: calls.append(m) or rank(m))
    assert algebra_span_dimension(short) == expected < 16
    assert len(calls) == exact_calls


@pytest.mark.parametrize("sig", [Signature(0, 3), Signature(1, 0)], ids=str)
def test_double_type_span_is_half_the_algebra(sig):
    # the pseudoscalar is +-1 on the ideal, so the blade images repeat in pairs
    gs = gamma_set_for_signature(sig)
    assert algebra_span_dimension(gs) == dense_span_rank(gs) == 1 << (sig.n - 1)


def test_quaternion_table_directly():
    sig = Signature(0, 2)
    metric = sig.metric()
    i = Multivector.basis_vector(1, 2, F(1))
    j = Multivector.basis_vector(2, 2, F(1))
    k = clifford(i, j, metric)
    minus_one = Multivector.scalar(F(-1), 2)
    assert clifford(i, i, metric) == minus_one
    assert clifford(j, j, metric) == minus_one
    assert clifford(k, k, metric) == minus_one
    assert clifford(clifford(i, j, metric), k, metric) == minus_one
    assert clifford(j, k, metric) == i
    assert clifford(k, i, metric) == j


def test_cl31_even_central_element():
    sig = Signature(3, 1)
    metric = sig.metric()
    omega = Multivector(4, {0b1111: F(1)})
    assert clifford(omega, omega, metric) == Multivector.scalar(F(-1), 4)
    for mask in basis_blades(4):
        if bin(mask).count("1") % 2 == 0:
            b = Multivector(4, {mask: F(1)})
            assert clifford(omega, b, metric) == clifford(b, omega, metric)


# ---------------------------------------------------------------------------
# sigma generators


@pytest.fixture(scope="module")
def cl31():
    gs = gamma_set_for_signature(Signature(3, 1))
    return gs, sigma_generators(gs)


def test_sigma_diagonal_vanishes(cl31):
    _, sigmas = cl31
    for mu in range(4):
        assert exact.is_zero(sigmas.mat(mu, mu))


def test_sigma_antisymmetry_and_quarter_commutator(cl31):
    gs, sigmas = cl31
    for mu in range(4):
        for nu in range(4):
            brute = (gs.gammas[mu] @ gs.gammas[nu] - gs.gammas[nu] @ gs.gammas[mu]) * F(1, 4)
            assert mat_equal(sigmas.mat(mu, nu), brute)
            assert exact.is_zero(sigmas.mat(mu, nu) + sigmas.mat(nu, mu))


def test_sigma_traceless(cl31):
    _, sigmas = cl31
    for mu in range(4):
        for nu in range(4):
            assert sum(sigmas.mat(mu, nu)[i, i] for i in range(4)) == 0


def test_sigma_commutators_match_brute_force_oracle(cl31):
    gs, sigmas = cl31
    # oracle: plain matrix arithmetic straight from the gammas
    g = gs.gammas
    s = {
        (a, b): (g[a] @ g[b] - g[b] @ g[a]) * F(1, 4)
        for a in range(4)
        for b in range(4)
    }
    comm = s[(0, 1)] @ s[(1, 2)] - s[(1, 2)] @ s[(0, 1)]
    lib = sigmas.mat(0, 1) @ sigmas.mat(1, 2) - sigmas.mat(1, 2) @ sigmas.mat(0, 1)
    assert mat_equal(lib, comm)
    # recorded constant: the oracle yields [sigma^12, sigma^23] = +1 * sigma^13
    assert mat_equal(comm, s[(0, 2)])
    # and with the timelike index: [sigma^14, sigma^24] = +1 * sigma^12
    comm_t = s[(0, 3)] @ s[(1, 3)] - s[(1, 3)] @ s[(0, 3)]
    assert mat_equal(comm_t, s[(0, 1)])


# ---------------------------------------------------------------------------
# integer product table against a Fraction oracle


def fraction_oracle(gs):
    """Products g^a g^b and the anticommutator residual, in Fractions on the gammas."""
    g = gs.gammas
    prod = {(a, b): g[a] @ g[b] for a in range(gs.n) for b in range(gs.n)}
    eye = frac_eye(gs.dim)
    residual = max(
        max(abs(x) for x in np.ravel(
            prod[a, b] + prod[b, a] - (2 * gs.metric_diag[a] if a == b else 0) * eye
        ))
        for a, b in prod
    )
    return prod, residual


def assert_integer_table_matches_oracle(gs):
    prod, residual = fraction_oracle(gs)
    scale = gs.denominator**2
    sigmas = sigma_generators(gs)
    assert sigmas.scale == 4 * scale
    for (a, b), oracle in prod.items():
        table = gs.products[a][b]
        assert all(type(x) is int for x in np.ravel(table))
        assert mat_equal(table, oracle * scale)
        assert mat_equal(sigmas.mat(a, b), (oracle - prod[b, a]) * F(1, 4))
    got = gs.anticommutator_residuals()
    assert type(got) is F and got == residual


LADDER = [(p, n - p) for n in range(1, 6) for p in range(n + 1)] + [(3, 3)]


@pytest.mark.parametrize("p,q", LADDER)
def test_integer_table_matches_the_fraction_oracle(p, q):
    gs = spinor_representation(Signature(p, q))[1]
    assert gs.denominator == 1
    assert_integer_table_matches_oracle(gs)


@pytest.mark.parametrize("thirds", [(1, 1, 1, 1), (1, 2, 1, 3)])
def test_rescaled_gammas_give_the_oracle_residual(thirds):
    gs = gamma_set_for_signature(Signature(3, 1))
    scaled = dataclasses.replace(
        gs, gammas=[g * F(k, 3) for g, k in zip(gs.gammas, thirds)]
    )
    assert scaled.denominator == 3
    assert scaled.anticommutator_residuals() != 0
    assert_integer_table_matches_oracle(scaled)


def test_mixed_denominators_share_one_lcm():
    gs = gamma_set_for_signature(Signature(1, 1))
    scaled = dataclasses.replace(gs, gammas=[gs.gammas[0] * F(1, 2), gs.gammas[1] * F(2, 3)])
    assert scaled.denominator == 6
    assert mat_equal(scaled.numerators[0], gs.gammas[0] * 3)
    assert mat_equal(scaled.numerators[1], gs.gammas[1] * 4)
    assert_integer_table_matches_oracle(scaled)


def test_float_residual_keeps_a_nan():
    g = [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
    assert anticommutator_residual(gamma_products(g), (1, 1)) == 0.0
    g[1][0, 0] = np.nan
    assert np.isnan(anticommutator_residual(gamma_products(g), (1, 1)))


# ---------------------------------------------------------------------------
# spinor covariant / Lie derivatives


def test_cov_deriv_flat_connection_is_directional_derivative(cl31):
    _, sigmas = cl31
    rng = np.random.default_rng(4)
    x_dpsi = rng.normal(size=4)
    psi = rng.normal(size=4)
    a = np.zeros((4, 4))
    out = spinor_cov_deriv(a, x_dpsi, psi, sigmas)
    assert np.allclose(out, x_dpsi)


def test_cov_deriv_single_pair_contraction(cl31):
    gs, sigmas = cl31
    psi = np.array([1.0, -2.0, 0.5, 3.0])
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 0.7, -0.7
    out = spinor_cov_deriv(a, np.zeros(4), psi, sigmas)
    expected = 0.7 * np.array(sigmas.mat(0, 1), dtype=float) @ psi
    assert np.allclose(out, expected)


def test_cov_deriv_linear_in_psi(cl31):
    _, sigmas = cl31
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 4))
    a = a - a.T
    psi1, psi2 = rng.normal(size=4), rng.normal(size=4)
    x1, x2 = rng.normal(size=4), rng.normal(size=4)
    lhs = spinor_cov_deriv(a, x1 + 2 * x2, psi1 + 2 * psi2, sigmas)
    rhs = spinor_cov_deriv(a, x1, psi1, sigmas) + 2 * spinor_cov_deriv(a, x2, psi2, sigmas)
    assert np.allclose(lhs, rhs)


def test_cov_deriv_rejects_symmetric_coefficients(cl31):
    _, sigmas = cl31
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    with pytest.raises(ValueError):
        spinor_cov_deriv(a, np.zeros(4), np.ones(4), sigmas)


def test_lie_deriv_reduces_and_matches_cov_deriv(cl31):
    _, sigmas = cl31
    rng = np.random.default_rng(8)
    coeffs = rng.normal(size=(4, 4))
    coeffs = coeffs - coeffs.T
    x_dpsi = rng.normal(size=4)
    psi = rng.normal(size=4)
    zero = spinor_lie_deriv(np.zeros((4, 4)), x_dpsi, psi, sigmas)
    assert np.allclose(zero, x_dpsi)
    lie = spinor_lie_deriv(coeffs, x_dpsi, psi, sigmas)
    cov = spinor_cov_deriv(-coeffs, x_dpsi, psi, sigmas)
    assert np.allclose(lie, cov)
    # scaling the coefficients scales the sigma term
    lie2 = spinor_lie_deriv(2 * coeffs, x_dpsi, psi, sigmas)
    assert np.allclose(lie2 - x_dpsi, 2 * (lie - x_dpsi))


def test_cov_deriv_preserves_dirac_bilinear_for_constant_fields():
    # the sigma-term contribution to d(psi-bar phi) vanishes for a
    # metric-compatible connection: gamma0 sigma + sigma^T gamma0 = 0
    # in the read-off representation, whose gammas are signed permutations
    gs = gamma_set_for_signature(Signature(3, 1))
    gammas = [np.array(g, dtype=float) for g in gs.gammas]
    gamma0 = gammas[3]  # the timelike direction of Cl(3,1)
    quarter = 0.25
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 4))
    a = a - a.T
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    sigma_term = np.zeros((4, 4))
    for mu in range(4):
        for nu in range(4):
            sigma = quarter * (gammas[mu] @ gammas[nu] - gammas[nu] @ gammas[mu])
            sigma_term = sigma_term + 0.5 * a[mu, nu] * sigma
    # d(psi-bar phi) for constant fields = (S psi)^dag g0 phi + psi^dag g0 (S phi)
    leibniz = np.conj(sigma_term @ psi) @ (gamma0 @ phi) + np.conj(psi) @ (
        gamma0 @ (sigma_term @ phi)
    )
    assert abs(leibniz) <= 1e-10


def test_blade_square_and_commutation_helpers():
    diag = Signature(3, 1).diag
    assert blade_square_sign(0b0001, diag) == 1     # e1^2 = +1
    assert blade_square_sign(0b1000, diag) == -1    # e4^2 = -1
    assert blade_square_sign(0b1001, diag) == 1     # (e14)^2 = +1
    assert blade_square_sign(0b0111, diag) == -1    # (e123)^2 = -1
    assert blades_commute(0b0001, 0b1011)           # e1 and e124
    assert not blades_commute(0b0001, 0b0010)       # e1 and e2


# ---------------------------------------------------------------------------
# pivot read-off


@pytest.mark.parametrize("p,q", [(1, 1), (0, 2), (3, 1), (0, 3), (2, 2), (1, 3)])
def test_pivot_read_off_matches_elimination(p, q):
    # the coordinates read at the pivot masks are the unique solution of
    # span @ x = e^mu w that elimination over [span | images] finds
    sig = Signature(p, q)
    metric = sig.metric()
    basis = minimal_left_ideal(find_primitive_idempotent(sig).idempotent, metric)
    gs = spinor_rep_matrices(basis, metric, sig)
    assert gs.closure_failures == 0
    m = len(basis)
    span = np.stack([multivector_coords(w) for w in basis], axis=1)
    for mu in range(sig.n):
        raised = Multivector.basis_vector(mu + 1, sig.n, F(sig.diag[mu]))
        images = np.stack([multivector_coords(clifford(raised, w, metric)) for w in basis], axis=1)
        red, pivots = exact.rref(np.concatenate([span, images], axis=1))
        assert pivots == list(range(m))
        assert mat_equal(red[:m, m:], gs.gammas[mu])


def test_gamma_set_for_signature_rejects_a_non_ideal(monkeypatch):
    # span{1, e1} in Cl(1,1) is not a left ideal
    monkeypatch.setattr(
        spinor, "minimal_left_ideal",
        lambda f, metric: [Multivector.scalar(F(1), 2), Multivector.basis_vector(1, 2, F(1))],
    )
    with pytest.raises(ClosureError, match="2 images"):
        gamma_set_for_signature(Signature(1, 1))
