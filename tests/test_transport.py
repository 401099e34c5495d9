import copy
import json
import math
import tracemalloc
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifbundle.numerics import rk4_linear
from clifbundle.transport import (
    HamiltonianSpec,
    HermiticityError,
    Lifting,
    Path,
    SingularTrivializationError,
    Transport,
    Trivialization,
    _interpolate,
    connection_coeffs,
    evolve,
    matrix_bundle_hamiltonian,
    path_derivation,
    qubit_scenario_dict,
    scenario_from_dict,
    solve_bundle_schrodinger,
)

QUBIT_H = np.diag([1.0, -1.0]).astype(complex)


def qubit_exact(t: float) -> np.ndarray:
    return np.diag([np.exp(-1j * t), np.exp(1j * t)])


def rotation_trivialization(rate: float = 0.4) -> Trivialization:
    def of_t(t):
        c, s = np.cos(rate * t), np.sin(rate * t)
        return np.array([[c, -s], [s, c]], dtype=complex)

    return Trivialization.from_time_function(2, of_t)


@pytest.fixture()
def qubit_transport():
    path = Path.line(0.0, 1.0, 3)
    return Transport.build(path, HamiltonianSpec.constant(QUBIT_H), dt=1e-3)


@pytest.fixture()
def gauged_transport():
    path = Path.line(0.0, 1.0, 3)
    return Transport.build(
        path, HamiltonianSpec.constant(QUBIT_H), rotation_trivialization(), dt=1e-3
    )


# ---------------------------------------------------------------------------
# the integrator


def test_evolve_zero_hamiltonian_is_identity():
    h = HamiltonianSpec.zero(3)
    assert np.array_equal(evolve(h, 2.0, 0.0, 1e-2), np.eye(3))


def test_evolve_matches_closed_form_qubit():
    h = HamiltonianSpec.constant(QUBIT_H)
    u = evolve(h, 1.0, 0.0, 1e-3)
    assert np.max(np.abs(u - qubit_exact(1.0))) <= 1e-8


def test_evolve_backward_inverts_forward():
    h = HamiltonianSpec.constant(QUBIT_H)
    u_fwd = evolve(h, 1.0, 0.0, 1e-3)
    u_bwd = evolve(h, 0.0, 1.0, 1e-3)
    assert np.max(np.abs(u_bwd @ u_fwd - np.eye(2))) <= 1e-10


def test_evolve_commuting_family_matches_quadrature_oracle():
    # H(t) = f(t) H0 with Hermitian H0: U = V exp(-i Int(f) D) V^dag
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h0 = (a + a.conj().T) / 2
    f = lambda t: 1.0 + 0.5 * np.sin(3.0 * t)
    spec = HamiltonianSpec.scaled(f, h0)
    t_final = 1.0
    u = evolve(spec, t_final, 0.0, 1e-3)
    # Simpson quadrature of f, then the exact exponential via eigh
    n_panels = 2000
    ts = np.linspace(0.0, t_final, n_panels + 1)
    fs = f(ts)
    integral = (ts[1] - ts[0]) / 3 * (
        fs[0] + fs[-1] + 4 * np.sum(fs[1:-1:2]) + 2 * np.sum(fs[2:-1:2])
    )
    evals, evecs = np.linalg.eigh(h0)
    oracle = evecs @ np.diag(np.exp(-1j * integral * evals)) @ evecs.conj().T
    assert np.max(np.abs(u - oracle)) <= 1e-8


def test_evolve_fourth_order_convergence():
    h = HamiltonianSpec.constant(QUBIT_H)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        u = evolve(h, 1.0, 0.0, dt)
        errors.append(np.max(np.abs(u - qubit_exact(1.0))))
    # least-squares slope of log(err) against log(dt)
    xs = np.log([1e-2, 5e-3, 2.5e-3])
    ys = np.log(errors)
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - 4.0) <= 0.3


def test_evolve_rejects_bad_inputs():
    # a constant H is checked once, when the spec is built
    with pytest.raises(HermiticityError):
        h = HamiltonianSpec.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
        evolve(h, 1.0, 0.0, 1e-2)
    good = HamiltonianSpec.constant(QUBIT_H)
    with pytest.raises(ValueError):
        evolve(good, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        evolve(good, 1.0, 0.0, -1e-3)


def _hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


SPEC_KINDS = ("constant", "polynomial", "scaled", "tabulated")


def _spec(kind: str, dim: int = 3) -> HamiltonianSpec:
    rng = np.random.default_rng(7)
    h0, h1, h2 = (_hermitian(rng, dim) for _ in range(3))
    if kind == "constant":
        return HamiltonianSpec.constant(h0)
    if kind == "polynomial":
        return HamiltonianSpec.polynomial([h0, h1, h2])
    if kind == "scaled":
        return HamiltonianSpec.scaled(lambda t: 1.0 + 0.5 * np.sin(3.0 * t), h0)
    # kinks at 0.3 and 0.55 fall inside a block for every step count below
    return HamiltonianSpec.tabulated([0.0, 0.3, 0.55, 1.0], [h0, h1, h2, -h0], 0.0, 1.0)


def _assert_evolve_matches_step_loop(spec, t, s, steps):
    dt = abs(t - s) / (steps - 0.5)
    assert math.ceil(abs(t - s) / dt) == steps
    loop = rk4_linear(
        lambda time, y: spec.matrix(time) @ y, np.eye(spec.dim, dtype=complex), s, t, dt
    )
    batched = evolve(spec, t, s, dt)
    assert np.max(np.abs(batched - loop)) <= 1e-12 * np.max(np.abs(loop))


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 1000])
@pytest.mark.parametrize("t, s", [(1.0, 0.0), (0.0, 1.0)], ids=["forward", "backward"])
@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_batched_evolve_matches_step_loop(kind, t, s, steps):
    _assert_evolve_matches_step_loop(_spec(kind), t, s, steps)


# a constant spec takes the matrix power: step counts with one, two and many
# set bits, and a fibre wider than the qubit
@pytest.mark.parametrize("steps", [2, 3, 4097])
@pytest.mark.parametrize("t, s", [(1.0, 0.0), (0.0, 1.0)], ids=["forward", "backward"])
@pytest.mark.parametrize("dim", [3, 8])
def test_constant_evolve_matches_step_loop(dim, t, s, steps):
    _assert_evolve_matches_step_loop(_spec("constant", dim), t, s, steps)


@pytest.mark.parametrize("t", [1.0, -1.0], ids=["forward", "backward"])
def test_evolve_roundoff_does_not_grow_with_the_step_count(t):
    # at 10 000 steps the truncation error is ~1e-18, so what is left is
    # roundoff: ~1e-15 for the step loop and for the increment power, 2.4e-13
    # for a product that rounds each step matrix I + D_n
    u = evolve(HamiltonianSpec.constant(QUBIT_H), t, 0.0, 1e-4)
    assert np.max(np.abs(u - qubit_exact(t))) <= 1e-14


@pytest.mark.parametrize("t", [1.0, -1.0], ids=["forward", "backward"])
def test_constant_evolve_over_a_million_steps_lands_on_the_exponential(t):
    h = _hermitian(np.random.default_rng(3), 8)
    evals, evecs = np.linalg.eigh(h)
    exact = evecs @ np.diag(np.exp(-1j * t * evals)) @ evecs.conj().T
    u = evolve(HamiltonianSpec.constant(h), t, 0.0, 1e-6)
    assert np.max(np.abs(u - exact)) <= 1e-14


@pytest.mark.parametrize("kind", ["constant", "zero"])
def test_constant_evolve_never_evaluates_the_spec(monkeypatch, kind):
    spec = HamiltonianSpec.constant(QUBIT_H) if kind == "constant" else HamiltonianSpec.zero(2)

    def refuse(self, t):
        raise AssertionError("HamiltonianSpec.matrix called")

    monkeypatch.setattr(HamiltonianSpec, "matrix", refuse)
    evolve(spec, 1.0, 0.0, 1e-3)
    evolve(spec, 0.0, 1.0, 1e-3)


def test_evolve_memory_is_bounded_by_the_block():
    # a time-dependent spec, so the block loop runs; a constant one takes the power
    spec = _spec("polynomial", 8)
    evolve(spec, 0.01, 0.0, 1e-3)  # warm up numpy's first-call allocations
    peaks = []
    for steps in (1_000, 10_000):
        tracemalloc.start()
        try:
            evolve(spec, 1.0, 0.0, 1.0 / steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_hermiticity_gate_is_scale_free():
    # a Hermitian H of scale 1e5 after an orthogonal round trip; its absolute
    # residual exceeds 1e-12, its relative residual does not
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    h = q @ np.diag([1e5, -2e4, 6e4, -8e4]) @ np.linalg.inv(q)
    assert np.max(np.abs(h - h.conj().T)) > 1e-12
    spec = HamiltonianSpec.constant(h)
    assert np.array_equal(spec.matrix(0.2), h)
    scaled = HamiltonianSpec.scaled(lambda t: 1.0 + t, h)
    assert np.array_equal(scaled.matrix(np.array([0.0]))[0], h)


@pytest.mark.parametrize(
    "build",
    [
        lambda m: HamiltonianSpec.constant(m),
        lambda m: HamiltonianSpec.polynomial([np.eye(2), m]),
        lambda m: HamiltonianSpec.tabulated([0.0, 1.0], [np.eye(2), m], 0.0, 1.0),
        lambda m: HamiltonianSpec.scaled(lambda t: 1.0, m).matrix(0.5),
    ],
    ids=["constant", "polynomial", "tabulated", "scaled"],
)
def test_hermiticity_gate_rejects_nan(build):
    # NaN > 1e-12 is false, so a gate written as "reject if residual > tol" let it pass
    with pytest.raises(HermiticityError):
        build(np.array([[1.0, np.nan], [np.nan, -1.0]], dtype=complex))


def test_hamiltonian_spec_evaluates_arrays_of_times():
    times = np.array([0.0, 0.1, 0.35, 0.9, 1.0])
    for spec in map(_spec, SPEC_KINDS):
        stack = spec.matrix(times)
        assert stack.shape == (len(times), spec.dim, spec.dim)
        for k, t in enumerate(times):
            assert np.max(np.abs(stack[k] - spec.matrix(t))) <= 1e-15
            assert np.max(np.abs(stack[k] - spec.of_t(t))) <= 1e-15


def test_hamiltonian_spec_from_a_callable_is_always_checked():
    # only the constant, polynomial and tabulated kinds skip the per-call
    # check, having checked their matrices when built
    with pytest.raises(TypeError):
        HamiltonianSpec(2)
    with pytest.raises(TypeError):
        HamiltonianSpec(2, lambda t: QUBIT_H, on_times=lambda ts: ts)
    spec = HamiltonianSpec(2, lambda t: np.array([[0.0, t], [0.0, 0.0]]))
    with pytest.raises(HermiticityError):
        spec.matrix(np.array([0.0, 0.5]))


# ---------------------------------------------------------------------------
# transport operator


def test_identity_trivialization_gives_plain_evolution(qubit_transport):
    u_transport = qubit_transport.operator(0.8, 0.1)
    u_plain = qubit_transport.fibre_evolution(0.8, 0.1)
    assert np.array_equal(u_transport, u_plain)


def test_transport_identity_and_cocycle(gauged_transport):
    assert gauged_transport.round_trip_residual(0.9, 0.2) <= 1e-8
    for (t, s, r) in [(1.0, 0.5, 0.0), (0.9, 0.3, 0.1), (0.2, 0.7, 1.0)]:
        assert gauged_transport.cocycle_residual(t, s, r) <= 1e-8


def test_pure_gauge_transport_is_trivialization_product():
    path = Path.line(0.0, 1.0, 5)
    l = rotation_trivialization(0.9)
    tr = Transport.build(path, HamiltonianSpec.zero(2), l, dt=1e-3)
    t, s = 0.9, 0.2
    expected = np.linalg.inv(l.matrix(t)) @ l.matrix(s)
    assert np.max(np.abs(tr.operator(t, s) - expected)) <= 1e-12


def test_transport_unitary_in_conjugated_inner_product(gauged_transport):
    assert gauged_transport.unitarity_residual(1.0, 0.0) <= 1e-8


def test_gauge_relation_between_two_trivializations():
    path = Path.line(0.0, 1.0, 3)
    h = HamiltonianSpec.constant(QUBIT_H)
    l1 = rotation_trivialization(0.4)
    l2 = Trivialization.from_time_function(
        2, lambda t: np.array([[1.0 + 0.2 * t, 0.1], [0.0, 1.0 - 0.1 * t]], dtype=complex)
    )
    tr1 = Transport.build(path, h, l1, dt=1e-3)
    tr2 = Transport.build(path, h, l2, dt=1e-3)
    t, s = 0.9, 0.2
    conj = (
        np.linalg.inv(l2.matrix(t)) @ l1.matrix(t)
        @ tr1.operator(t, s)
        @ np.linalg.inv(l1.matrix(s)) @ l2.matrix(s)
    )
    assert np.max(np.abs(tr2.operator(t, s) - conj)) <= 1e-8


def test_singular_trivialization_detected():
    path = Path.line(0.0, 1.0, 3)
    mats = [np.eye(2), np.zeros((2, 2)), np.eye(2)]
    with pytest.raises(SingularTrivializationError, match="sample 1"):
        Trivialization.from_samples(path, mats)


def test_trivialization_gates_accept_small_well_conditioned_matrix():
    # 5e-4 I has condition number 1; its |det| = 6.25e-14 failed the old absolute gate
    path = Path.line(0.0, 1.0, 3)
    triv = Trivialization.from_samples(path, [5e-4 * np.eye(4)] * 3)
    assert np.max(np.abs(triv.inverse(0.5) - 2e3 * np.eye(4))) <= 1e-9


def test_trivialization_gates_reject_ill_conditioned_matrix():
    # diag(1e6, 1e-7) has |det| = 0.1, which passed the old absolute gate,
    # but condition number 1e13
    path = Path.line(0.0, 1.0, 3)
    bad = np.diag([1e6, 1e-7])
    with pytest.raises(SingularTrivializationError, match="sample 1"):
        Trivialization.from_samples(path, [np.eye(2), bad, np.eye(2)])
    with pytest.raises(SingularTrivializationError, match="t=0.5"):
        Trivialization.from_time_function(2, lambda t: bad).inverse(0.5)


def test_non_finite_trivialization_sample_is_singular():
    # np.linalg.cond raises LinAlgError on a NaN matrix instead of returning a number
    path = Path.line(0.0, 1.0, 3)
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(SingularTrivializationError, match="sample 1"):
        Trivialization.from_samples(path, [np.eye(2), bad, np.eye(2)])


def test_non_finite_trivialization_inverse_is_singular():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularTrivializationError, match="t=0.5"):
        Trivialization.from_time_function(2, lambda t: bad).inverse(0.5)


def test_path_validation():
    with pytest.raises(ValueError):
        Path(np.array([0.0]), np.array([[0.0]]))
    with pytest.raises(ValueError):
        Path(np.array([0.0, 0.0]), np.array([[0.0], [1.0]]))
    path = Path.line(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        path.check_time(1.5)


def test_path_points_are_n_or_n_by_d():
    # a (1, 2) array is one 2-D point, not two 1-D points: no silent transpose
    with pytest.raises(ValueError, match="shape"):
        Path([0, 1], [[0.0, 1.0]])
    assert Path([0, 0.5, 1], [0, 0.5, 1]).points.shape == (3, 1)
    assert Path([0, 1], [[0.0, 1.0], [2.0, 3.0]]).points.shape == (2, 2)
    with pytest.raises(ValueError, match="shape"):
        Path([0, 1], np.zeros((2, 1, 1)))


# ---------------------------------------------------------------------------
# connection coefficients


def test_connection_zero_for_trivial_data():
    path = Path.line(0.0, 1.0, 3)
    tr = Transport.build(path, HamiltonianSpec.zero(2), dt=1e-3)
    gamma = connection_coeffs(tr, 0.5, 1e-4)
    assert np.max(np.abs(gamma)) <= 1e-12


def test_connection_equals_i_times_hamiltonian(qubit_transport):
    gamma = connection_coeffs(qubit_transport, 0.5, 1e-4)
    assert np.max(np.abs(gamma - 1j * QUBIT_H)) <= 1e-6


def test_connection_stencil_is_second_order(qubit_transport):
    errs = []
    for h in (2e-3, 1e-3):
        gamma = connection_coeffs(qubit_transport, 0.5, h)
        errs.append(np.max(np.abs(gamma - 1j * QUBIT_H)))
    ratio = errs[0] / errs[1]
    assert 2.5 <= ratio <= 5.5  # ~4x per halving


def test_connection_boundary_stencil_error(qubit_transport):
    with pytest.raises(ValueError):
        connection_coeffs(qubit_transport, 0.0, 1e-4)
    with pytest.raises(ValueError):
        connection_coeffs(qubit_transport, 1.0, 1e-4)


# ---------------------------------------------------------------------------
# derivation along paths


def test_parallel_transported_lifting_has_zero_derivative(qubit_transport):
    lam0 = np.array([1.0, 0.5], dtype=complex)
    times = np.linspace(0.0, 1.0, 101)
    lifting = Lifting.from_function(
        lambda t: qubit_transport.operator(t, 0.0) @ lam0, times
    )
    d = path_derivation(lifting, qubit_transport, 0.5, 1e-4)
    assert np.max(np.abs(d)) <= 1e-6


def test_flat_derivation_is_ordinary_derivative():
    path = Path.line(0.0, 1.0, 3)
    tr = Transport.build(path, HamiltonianSpec.zero(2), dt=1e-3)
    times = np.linspace(0.0, 1.0, 101)
    lifting = Lifting.from_function(lambda t: np.array([t, 0.0]), times)
    d = path_derivation(lifting, tr, 0.5, 1e-4)
    assert np.max(np.abs(d - np.array([1.0, 0.0]))) <= 1e-8


def test_derivation_matches_local_coordinate_form(gauged_transport):
    # Transport-difference form against d(lambda)/ds + Gamma lambda
    times = np.linspace(0.0, 1.0, 201)
    lifting = Lifting.from_function(
        lambda t: np.array(
            [np.exp(-0.3j * t) * (1 + 0.2 * t), np.sin(0.7 * t) + 0.4j * t**2]
        ),
        times,
    )
    s, h = 0.5, 1e-4
    eq_form = path_derivation(lifting, gauged_transport, s, h)
    gamma = connection_coeffs(gauged_transport, s, h)
    dlam = (lifting.at(s + h) - lifting.at(s - h)) / (2 * h)
    local = dlam + gamma @ lifting.at(s)
    assert np.max(np.abs(eq_form - local)) <= 1e-5


def test_lifting_needs_enough_samples():
    with pytest.raises(ValueError):
        Lifting(np.array([0.0, 1.0]), np.zeros((2, 2)))


@pytest.mark.parametrize("times", [[0, 1, 1, 3], [0, 2, 1, 3]], ids=["repeated", "unsorted"])
def test_lifting_needs_strictly_increasing_times(times):
    with pytest.raises(ValueError, match="strictly increasing"):
        Lifting(times, times)


def linear_reference(times, values, t):
    """(1 - w) v0 + w v1 on the segment of t, the form two-point interpolation keeps."""
    idx = np.searchsorted(times[1:-1], t) + 1
    t0, t1 = times[idx - 1], times[idx]
    w = np.asarray((t - t0) / (t1 - t0))[(...,) + (None,) * (values.ndim - 1)]
    return (1 - w) * values[idx - 1] + w * values[idx]


@pytest.mark.parametrize("seed", range(20))
def test_two_point_interpolation_is_the_linear_form_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.01, 1.0, rng.integers(2, 8))) - 1.0
    values = rng.normal(size=(len(times), 3, 3)) + 1j * rng.normal(size=(len(times), 3, 3))
    inside = rng.uniform(times[0], times[-1], 9)
    for t in (inside[0], times[0], times[-1], inside, np.concatenate([times, inside])):
        got = _interpolate(times, values, t, 2)
        assert got.shape == np.shape(t) + (3, 3)
        assert np.array_equal(got, linear_reference(times, values, t))
    points = rng.normal(size=(len(times), 2))
    got = _interpolate(times, points, inside, 2)
    assert np.array_equal(got, linear_reference(times, points, inside))


def test_four_point_interpolation_is_exact_on_cubics():
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.uniform(0.05, 0.5, 9))
    coeffs = rng.normal(size=(4, 2))
    cubic = lambda t: np.stack([np.polyval(c, t) for c in coeffs.T], axis=-1)
    ts = np.concatenate([times, rng.uniform(times[0], times[-1], 40)])
    assert np.max(np.abs(_interpolate(times, cubic(times), ts, 4) - cubic(ts))) <= 1e-13


def test_lifting_accepts_an_array_of_times():
    times = np.linspace(0.0, 1.0, 11)
    lifting = Lifting.from_function(lambda t: np.array([t**3, 1j * t**2]), times)
    ts = np.array([0.0, 0.33, 0.5, 0.91, 1.0])
    got = lifting.at(ts)
    assert got.shape == (5, 2)
    assert np.array_equal(got, np.array([lifting.at(t) for t in ts]))
    assert np.max(np.abs(got - np.stack([ts**3, 1j * ts**2], axis=-1))) <= 1e-14
    for outside in (np.array([0.5, 1.1]), math.nan):
        with pytest.raises(ValueError, match="outside lifting range"):
            lifting.at(outside)


# ---------------------------------------------------------------------------
# one-sweep propagation


def test_propagate_matches_pairwise_operators(gauged_transport):
    times = np.linspace(0.0, 1.0, 11)
    sweep = gauged_transport.propagate(times, 0.0)
    assert np.array_equal(sweep[0], np.eye(2))
    for k, t in enumerate(times):
        assert np.max(np.abs(sweep[k] - gauged_transport.operator(t, 0.0))) <= 1e-12


def test_propagate_backward_from_the_end(qubit_transport):
    times = np.linspace(1.0, 0.0, 5)
    sweep = qubit_transport.propagate(times, 1.0)
    for k, t in enumerate(times):
        assert np.max(np.abs(sweep[k] - qubit_exact(t - 1.0))) <= 1e-8


def test_propagate_leaves_the_pairwise_cache_alone(qubit_transport):
    # a sweep that read or filled the cache would make the cocycle check
    # compare an integration with itself
    qubit_transport._cache[(1.0, 0.0)] = np.zeros((2, 2), dtype=complex)
    sweep = qubit_transport.propagate([0.5, 1.0], 0.0)
    assert np.max(np.abs(sweep[1] - qubit_exact(1.0))) <= 1e-8
    assert list(qubit_transport._cache) == [(1.0, 0.0)]


def test_propagate_checks_times(qubit_transport):
    with pytest.raises(ValueError):
        qubit_transport.propagate([0.5, 1.5], 0.0)


# ---------------------------------------------------------------------------
# bundle Schrodinger equation


def test_bundle_schrodinger_flat_case_keeps_state():
    path = Path.line(0.0, 1.0, 3)
    tr = Transport.build(path, HamiltonianSpec.zero(2), dt=1e-3)
    psi0 = np.array([0.3, -0.8j])
    psi = solve_bundle_schrodinger(tr, psi0, 1.0)
    assert np.max(np.abs(psi - psi0)) <= 1e-12


def test_bundle_schrodinger_qubit_closed_form(qubit_transport):
    psi0 = np.array([1.0, 1.0]) / math.sqrt(2)
    psi = solve_bundle_schrodinger(qubit_transport, psi0, 1.0)
    expected = qubit_exact(1.0) @ psi0
    assert np.max(np.abs(psi - expected)) <= 1e-8


def test_pushforward_matches_direct_schrodinger(gauged_transport):
    # l(t) Psi(t) must equal the plain Schrodinger solution started
    # from l(0) Psi0; the oracle is the closed-form qubit evolution
    psi0 = np.array([0.6, 0.8], dtype=complex)
    t = 1.0
    bundle = solve_bundle_schrodinger(gauged_transport, psi0, t)
    pushed = gauged_transport.trivialization.matrix(t) @ bundle
    direct = qubit_exact(t) @ (gauged_transport.trivialization.matrix(0.0) @ psi0)
    assert np.max(np.abs(pushed - direct)) <= 1e-8


def test_gauge_covariance_under_constant_frame_change():
    path = Path.line(0.0, 1.0, 3)
    h = HamiltonianSpec.constant(QUBIT_H)
    base = rotation_trivialization(0.5)
    m = np.array([[1.2, 0.3], [-0.1, 0.9]], dtype=complex)
    changed = Trivialization.from_time_function(2, lambda t: m @ base.matrix(t))
    tr_a = Transport.build(path, h, base, dt=1e-3)
    tr_b = Transport.build(path, h, changed, dt=1e-3)
    psi0 = np.array([0.5, -0.5j])
    t = 1.0
    push_a = base.matrix(t) @ solve_bundle_schrodinger(tr_a, psi0, t)
    # the M-rotated frame needs the matching initial fibre vector
    psi0_b = np.linalg.inv(changed.matrix(0.0)) @ (base.matrix(0.0) @ psi0)
    push_b = changed.matrix(t) @ solve_bundle_schrodinger(tr_b, psi0_b, t)
    assert np.max(np.abs(push_a - push_b)) <= 1e-10


# ---------------------------------------------------------------------------
# matrix-bundle Hamiltonian


def test_matrix_hamiltonian_zero_case():
    path = Path.line(0.0, 1.0, 3)
    tr = Transport.build(path, HamiltonianSpec.zero(2), dt=1e-3)
    assert np.max(np.abs(matrix_bundle_hamiltonian(tr, 0.5, 1e-4))) <= 1e-12


def test_matrix_hamiltonian_recovers_constant_h(qubit_transport):
    hm = matrix_bundle_hamiltonian(qubit_transport, 0.5, 1e-4)
    assert np.max(np.abs(hm - QUBIT_H)) <= 1e-6


def test_matrix_hamiltonian_is_minus_i_gamma(qubit_transport):
    hm = matrix_bundle_hamiltonian(qubit_transport, 0.5, 1e-4)
    gamma = connection_coeffs(qubit_transport, 0.5, 1e-4)
    assert np.max(np.abs(hm - (-1j) * gamma)) <= 1e-8


def test_matrix_hamiltonian_pure_gauge_product_rule():
    # H = 0, l varying: the derived oracle is -i l^-1 dl/dt (finite-difference
    # dl/dt); the sign is pinned by the Gamma = iH convention on constant H
    path = Path.line(0.0, 1.0, 3)
    l = rotation_trivialization(0.8)
    tr = Transport.build(path, HamiltonianSpec.zero(2), l, dt=1e-3)
    t, h = 0.5, 1e-4
    hm = matrix_bundle_hamiltonian(tr, t, h)
    dl = (l.matrix(t + h) - l.matrix(t - h)) / (2 * h)
    oracle = -1j * np.linalg.inv(l.matrix(t)) @ dl
    assert np.max(np.abs(hm - oracle)) <= 1e-6


def test_matrix_hamiltonian_hermitian_for_unitary_trivialization(gauged_transport):
    hm = matrix_bundle_hamiltonian(gauged_transport, 0.5, 1e-4)
    assert np.max(np.abs(hm - hm.conj().T)) <= 1e-6


# ---------------------------------------------------------------------------
# scenarios


def test_qubit_scenario_round_trip():
    sc = scenario_from_dict(qubit_scenario_dict())
    assert sc.fibre_dim == 2
    assert np.array_equal(sc.hamiltonian.matrix(0.3), QUBIT_H)
    tr = Transport.build(sc.path, sc.hamiltonian, sc.trivialization, sc.dt)
    assert tr.cocycle_residual(1.0, 0.5, 0.0) <= sc.tolerances["cocycle"]


def test_scenario_missing_field_is_rejected():
    with pytest.raises(ValueError, match="missing"):
        scenario_from_dict({"fibre_dim": 2})


def test_scenario_rejects_unknown_hamiltonian_type():
    data = qubit_scenario_dict()
    data["hamiltonian"] = {"type": "mystery"}
    with pytest.raises(ValueError):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "changes",
    [{"path": []}, {"hamiltonian": "constant"}, {"dt": None}, {"tolerances": [1e-8]},
     {"fibre_dim": math.inf}, None],
    ids=["path", "hamiltonian", "dt", "tolerances", "fibre_dim", "top-level-list"],
)
def test_scenario_field_of_the_wrong_type_is_rejected(changes):
    data = [1, 2] if changes is None else {**qubit_scenario_dict(), **changes}
    with pytest.raises(ValueError, match="wrong type"):
        scenario_from_dict(data)


def test_tabulated_trivialization_needs_square_matrices():
    data = qubit_scenario_dict()
    data["trivialization"] = {"type": "tabulated", "matrices": [1, 2, 3]}
    with pytest.raises(ValueError, match="square"):
        scenario_from_dict(data)


SCENARIO_FILES = {
    name: json.loads((FsPath(__file__).resolve().parents[1] / "scenarios" / name).read_text())
    for name in ("qubit.json", "qubit_gauged.json", "tabulated.json")
}

# Integer and float atoms stay within +-100 and strings within 3 characters,
# so a drawn fibre_dim cannot ask numpy for a huge zero Hamiltonian.
JSON_ATOMS = (
    st.none()
    | st.booleans()
    | st.integers(-100, 100)
    | st.floats(-100, 100)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=3)
)
JSON_VALUES = JSON_ATOMS | st.recursive(
    JSON_ATOMS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


def mutate(data, doc) -> None:
    """Drop one key or element of doc, or replace it by random JSON.

    The walk stops at each level with probability 1/2, so top-level fields
    are hit as often as deep matrix entries.
    """
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node.keys()) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(JSON_VALUES)
            return


@pytest.mark.parametrize("name", sorted(SCENARIO_FILES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_scenario_parses_or_raises_value_error(name, data):
    doc = copy.deepcopy(SCENARIO_FILES[name])
    for _ in range(data.draw(st.integers(1, 3))):
        if doc:
            mutate(data, doc)
    try:
        scenario_from_dict(doc)
    except ValueError:
        pass


def test_polynomial_hamiltonian_spec():
    spec = HamiltonianSpec.polynomial([np.eye(2), 2.0 * np.eye(2)])
    assert np.allclose(spec.matrix(0.5), 2.0 * np.eye(2))


def test_trivialization_from_base_point_function():
    # l given as a function of the base point, evaluated through the path
    path = Path.from_samples([(0.0, (0.0, 0.0)), (0.5, (0.5, 1.0)), (1.0, (1.0, 2.0))])
    def l_of_x(x):
        return np.array([[1.0 + 0.1 * x[0], 0.0], [0.2 * x[1], 1.0]], dtype=complex)
    l = Trivialization.from_point_function(2, l_of_x, path)
    # midpoint of the second segment interpolates the base point linearly
    assert np.allclose(path.point_at(0.75), [0.75, 1.5])
    assert np.allclose(l.matrix(0.75), l_of_x([0.75, 1.5]))
    tr = Transport.build(path, HamiltonianSpec.constant(QUBIT_H), l, dt=1e-3)
    assert tr.cocycle_residual(1.0, 0.6, 0.2) <= 1e-8
