"""One rule decides every float gate: numerics.within, relative and NaN-proof.

A gate passes a residual at 1e-12 of its scale.  Scaling a gate's inputs by
2^k is exact in binary floating point, and so is every residual built from
sums, products, abs, max and sqrt, so no such scaling may change a decision.
A NaN or an infinity in any entry is refused, with no numpy RuntimeWarning
on the way.  The structural test keeps the comparison in numerics.
"""

import ast
import functools
import math
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifbundle import fields as fl
from clifbundle import spinor as sp
from clifbundle.ga import Metric, Signature
from clifbundle.numerics import within
from clifbundle.transport import HamiltonianSpec, Lifting, Path

PACKAGE = FsPath(__file__).resolve().parents[1] / "src" / "clifbundle"

powers = st.integers(-40, 40)
seeds = st.integers(0, 2**32 - 1)
# a residual of rel * 1e-12 of its scale: the draws straddle the threshold
rels = st.floats(0.1, 10.0)
poisons = st.sampled_from([math.nan, math.inf, -math.inf])
gate = settings(max_examples=40, deadline=None)
no_warnings = pytest.mark.filterwarnings("error::RuntimeWarning")


def decision(build):
    """None when build() passes, else the type of the error that refused it."""
    try:
        build()
    except (ValueError, sp.ClosureError) as exc:
        return type(exc)
    return None


def poison(arr, seed, value):
    out = np.array(arr)
    out.flat[np.random.default_rng(seed).integers(out.size)] = value
    return out


def test_within_is_relative_and_refuses_what_is_not_finite():
    assert within(1e-12, 1.0) and not within(1.01e-12, 1.0)
    assert within(1e-7, 1e6) and not within(1e-13, 1e-2)
    assert within(0.0, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        assert not within(bad, 1.0) and not within(0.0, bad)
    # the array form agrees with the float form entry by entry
    residual = np.array([1e-12, 2e-12, math.nan, 0.0, -math.inf])
    scale = np.array([1.0, 1.0, 1.0, math.inf, 1.0])
    each = [within(float(r), float(s)) for r, s in zip(residual, scale)]
    assert within(residual, scale).tolist() == each


def _float_literals(node):
    """The float constants of an operand: bare, signed, or a term of any arithmetic."""
    if isinstance(node, ast.Constant):
        return [node.value] if isinstance(node.value, float) else []
    if isinstance(node, ast.UnaryOp):
        return _float_literals(node.operand)
    if isinstance(node, ast.BinOp):
        return _float_literals(node.left) + _float_literals(node.right)
    return []


def test_no_float_gate_outside_numerics_writes_its_own_comparison():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                if any(_float_literals(op) for op in [node.left, *node.comparators]):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == [], "compare through numerics.within: " + ", ".join(found)


# ---------------------------------------------------------------------------
# one hypothesis test per gate: scaling by 2^k, then a poisoned entry


@no_warnings
@gate
@given(seed=seeds, k=powers, rel=rels, value=poisons)
def test_metric_symmetry_gate(seed, k, rel, value):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    g = np.diag([4.0, -5.0, 6.0]) + 0.1 * (a + a.T)
    g[0, 1] += rel * 1e-12 * np.max(np.abs(g))
    assert decision(lambda: Metric.from_gram(g)) == decision(lambda: Metric.from_gram(2.0**k * g))
    assert decision(lambda: Metric.from_gram(poison(g, seed, value))) is not None


@no_warnings
@gate
@given(seed=seeds, k=powers, ratio=st.sampled_from([1e-16, 1e-14, 1e-13, 1e-11, 1e-10, 1e-3]))
def test_metric_degeneracy_gate(seed, k, ratio):
    # eigenvalues min/max = ratio, a decade or more from the threshold
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    g = q @ np.diag([1.0, -0.5, ratio]) @ q.T
    g = (g + g.T) / 2
    outcome = decision(lambda: Metric.from_gram(g))
    assert (outcome is None) == (ratio > 1e-12)
    assert decision(lambda: Metric.from_gram(2.0**k * g)) == outcome


@no_warnings
@gate
@given(seed=seeds, k=powers, rel=rels, value=poisons)
def test_hermiticity_gate(seed, k, rel, value):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = a + a.conj().T
    h[0, 1] += 1j * rel * 1e-12 * np.max(np.abs(h))
    assert decision(lambda: HamiltonianSpec.constant(h)) == decision(
        lambda: HamiltonianSpec.constant(2.0**k * h)
    )
    assert decision(lambda: HamiltonianSpec.constant(poison(h, seed, value))) is not None


@no_warnings
@gate
@given(seed=seeds, k=powers, rel=rels, value=poisons)
def test_affine_connection_symmetry_gate(seed, k, rel, value):
    c = np.random.default_rng(seed).normal(size=(3, 3, 3))
    c = c + c.transpose(0, 2, 1)
    c[1, 0, 2] += rel * 1e-12 * np.max(np.abs(c))
    assert decision(lambda: fl.AffineConnection(c)) == decision(
        lambda: fl.AffineConnection(2.0**k * c)
    )
    assert decision(lambda: fl.AffineConnection(poison(c, seed, value))) is not None


@functools.cache
def _sigmas():
    return sp.sigma_generators(sp.gamma_set_for_signature(Signature(3, 1)))


@no_warnings
@gate
@given(seed=seeds, k=powers, rel=rels, value=poisons)
def test_spinor_antisymmetry_gate(seed, k, rel, value):
    a = np.random.default_rng(seed).normal(size=(4, 4))
    a = a - a.T
    a[2, 1] += rel * 1e-12 * np.max(np.abs(a))
    psi = np.ones(4)

    def cov(coeffs):
        return lambda: sp.spinor_cov_deriv(coeffs, np.zeros(4), psi, _sigmas())

    assert decision(cov(a)) == decision(cov(2.0**k * a))
    assert decision(cov(poison(a, seed, value))) is not None


@no_warnings
@gate
@given(seed=seeds, k=powers, rel=rels, value=poisons)
def test_field_gamma_set_gate(seed, k, rel, value):
    # gammas scaled by 2^k generate the algebra of the metric scaled by 4^k
    rng = np.random.default_rng(seed)
    gammas = fl.minkowski_gamma_set(2).gammas
    e = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gammas = [gammas[0], gammas[1] + rel * 1e-12 * e / np.max(np.abs(e))]

    def gate_of(scale):
        return lambda: fl.FieldGammaSet(2, (scale**2, -(scale**2)), [scale * g for g in gammas])

    assert decision(gate_of(1.0)) == decision(gate_of(2.0**k))
    poisoned = [gammas[0], poison(gammas[1], seed, value)]
    assert decision(lambda: fl.FieldGammaSet(2, (1, -1), poisoned)) is sp.ClosureError


@no_warnings
@gate
@given(seed=seeds, k=powers, rel=rels, value=poisons)
def test_mode_symbol_quadratic_gate(seed, k, rel, value):
    # H' = diag(1, -1, 1 + d, -1 - d) squares to omega^2 I only up to 2d
    grid = fl.Grid((4,), (1.0,))
    comp = np.random.default_rng(seed).normal(size=(4, 4)) + 0j
    d = rel * 1e-12 / 2
    weights = np.array([1.0, -1.0, 1.0 + d, -1.0 - d])

    def evolve(w, scale=1.0):
        def apply_h(time, y):
            # the operator's own inf * 0 is not the gate's warning
            with np.errstate(invalid="ignore"):
                return scale * w[:, None] * y
        # t and dt shrink as H grows, so every step past the gate is the same
        return lambda: fl._evolve_modes(apply_h, comp, grid, 0.05 / scale, 1e-2 / scale)

    assert decision(evolve(weights)) == decision(evolve(weights, 2.0**k))
    assert decision(evolve(poison(weights, seed, value))) is ValueError


@no_warnings
@gate
@given(t0=st.floats(-10.0, 10.0), length=st.floats(1e-3, 10.0), rel=st.floats(-3.0, 3.0),
       k=powers, end=st.booleans(), value=poisons, which=st.integers(0, 2))
def test_time_window_gates(t0, length, rel, k, end, value, which):
    # t lies rel * 1e-12 max(|t_start|, |t_end|) beyond one end of the range
    times = np.linspace(t0, t0 + length, 4)
    reach = rel * 1e-12 * max(abs(times[0]), abs(times[-1]))
    t = times[-1] + reach if end else times[0] - reach
    values = np.ones((4, 2), dtype=complex)

    def window(ts, at):
        return (
            decision(lambda: Path(ts, ts).check_time(at)),
            decision(lambda: Lifting(ts, values).at(at)),
        )

    assert window(times, t) == window(2.0**k * times, 2.0**k * t)
    # a non-finite start, end or time
    bad_times, bad_t = times.copy(), t
    if which < 2:
        bad_times[-which] = value
    else:
        bad_t = value
    assert window(bad_times, bad_t) == (ValueError, ValueError)


# ---------------------------------------------------------------------------
# inputs the absolute comparisons misjudged


def test_affine_connection_refuses_a_nan():
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 1] = coeffs[0, 1, 0] = math.nan
    with pytest.raises(ValueError, match="finite and symmetric"):
        fl.AffineConnection(coeffs)


def test_affine_connection_judges_symmetry_relative_to_its_scale():
    # one ulp apart at 1e6: an absolute residual of 1.2e-10, relative 1.1e-16
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 1] = 1e6
    coeffs[0, 1, 0] = np.nextafter(1e6, 2e6)
    assert fl.AffineConnection(coeffs).coeffs[0, 1, 0] > 1e6


@pytest.mark.parametrize(
    "coeffs",
    [[[0, math.nan], [math.nan, 0]], [[0, 1e-13], [0, 0]]],
    ids=["nan", "one-entry-of-1e-13"],
)
def test_spinor_cov_deriv_refuses_what_is_not_antisymmetric(coeffs):
    sigmas = sp.sigma_generators(sp.gamma_set_for_signature(Signature(1, 1)))
    with pytest.raises(ValueError, match="finite and antisymmetric"):
        sp.spinor_cov_deriv(np.array(coeffs), np.zeros(2), np.ones(2), sigmas)


def test_spinor_antisymmetry_is_relative_to_the_coefficients():
    sigmas = sp.sigma_generators(sp.gamma_set_for_signature(Signature(1, 1)))
    coeffs = np.array([[0.0, 1e6], [-np.nextafter(1e6, 0.0), 0.0]])
    out = sp.spinor_cov_deriv(coeffs, np.zeros(2), np.ones(2), sigmas)
    assert np.all(np.isfinite(out))


@no_warnings
def test_complex_spinor_coefficients_take_the_float_rule():
    # one part in 1e16 off antisymmetric: exact inequality refused the complex
    # copy that the float rule passes as float64
    sigmas = sp.sigma_generators(sp.gamma_set_for_signature(Signature(1, 1)))
    near = np.array([[0.0, 1e6], [-np.nextafter(1e6, 0.0), 0.0]])
    far = np.array([[0.0, 1.0], [-0.5, 0.0]])

    def decide(coeffs, dtype):
        psi = np.ones(2)
        return decision(lambda: sp.spinor_cov_deriv(coeffs.astype(dtype), 0 * psi, psi, sigmas))

    assert decide(near, float) is decide(near, complex) is None
    assert decide(far, float) is decide(far, complex) is ValueError
    assert decide(np.array([[0.0, complex(np.nan, 1.0)], [0.0, 0.0]]), complex) is ValueError


def test_a_window_is_relative_to_the_path():
    # a path of length 1e-13 has a window of 1e-25, not 1e-12
    short = Path(np.array([0.0, 1e-13]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="outside path range"):
        short.check_time(1e-12)
    # and one that ends at 1e4 a window of 1e-8: 1e-9 past its end is on it
    long = Path(np.array([0.0, 1e4]), np.array([0.0, 1.0]))
    long.check_time(1e4 + 1e-9)
    lifting = Lifting.from_function(lambda t: [t], np.linspace(0.0, 1e4, 4))
    assert lifting.at(1e4 + 1e-9).shape == (1,)
