"""Evolution transport along discretized paths.

A path carries sampled base points; a trivialization identifies each fibre
with the typical fibre; the fibre evolution operator solves the matrix
Schrodinger equation i dU/dt = H(t) U with the classical RK4 scheme of
numerics, which the lattice fields also step.  The transport is the
trivialization-conjugated evolution U(t,s) = l(t)^-1 @ fibre_evolution(t,s)
@ l(s), from which connection coefficients and the derivation along the
path are read off by finite differences.  hbar = 1 throughout
(numerics.HBAR).

One helper, _interpolate, reads every sampled quantity: Lagrange
interpolation through consecutive samples, linear (2 points) for paths,
tabulated trivializations and tabulated Hamiltonians, cubic (4 points) for
liftings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .numerics import HBAR, _step_grid, _well_conditioned, rk4_step, within

__all__ = [
    "TOLERANCES",
    "Path",
    "Trivialization",
    "HamiltonianSpec",
    "Lifting",
    "Transport",
    "evolve",
    "connection_coeffs",
    "path_derivation",
    "solve_bundle_schrodinger",
    "matrix_bundle_hamiltonian",
    "load_scenario",
    "scenario_from_dict",
    "qubit_scenario_dict",
]


class HermiticityError(ValueError):
    """Hamiltonian matrix failed the Hermiticity contract."""


class SingularTrivializationError(ValueError):
    """A trivialization matrix is (numerically) singular."""


# ---------------------------------------------------------------------------
# path, trivialization, Hamiltonian


def _interpolate(times: np.ndarray, values: np.ndarray, t, points: int) -> np.ndarray:
    """Lagrange interpolation of values[k] at increasing times[k] through `points` samples.

    The samples are the `points` consecutive ones around t, clamped at the
    ends; t is a time or an array of times, and its shape leads the
    result's.  The first weight is 1 minus the others, so two points give
    (1 - w) v0 + w v1 bit for bit.
    """
    lo = times[points // 2:len(times) - points // 2].searchsorted(t)
    xs = [times[lo + i] for i in range(points)]
    # weight i is the product over j != i of (t - x_j) / (x_i - x_j)
    w = [1.0] * points
    for i in range(1, points):
        for j in range(points):
            if j != i:
                w[i] *= (t - xs[j]) / (xs[i] - xs[j])
    w[0] = 1 - sum(w[1:])
    # one term at a time: a stack of all the terms would double the transient memory
    tail = (...,) + (None,) * (values.ndim - 1)
    out = np.asarray(w[0])[tail] * values[lo]
    for i in range(1, points):
        out += np.asarray(w[i])[tail] * values[lo + i]
    return out


def _check_increasing(times: np.ndarray, what: str) -> None:
    # an infinite end would pass the order test and then refuse every time
    if not np.isfinite(times).all():
        raise ValueError(f"{what} times must be finite")
    if not np.all(np.diff(times) > 0):
        raise ValueError(f"{what} times must be strictly increasing")


@dataclass(frozen=True)
class Path:
    """Sampled world line: strictly increasing times with base-point coordinates."""

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        points = np.asarray(self.points, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("a path needs at least 2 samples")
        _check_increasing(times, "path")
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        if points.ndim != 2 or points.shape[0] != len(times):
            raise ValueError(
                f"points must have shape (N,) or (N, d) for N = {len(times)} samples, "
                f"got {np.shape(self.points)}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @classmethod
    def from_samples(cls, samples) -> "Path":
        """Build from [(t, x), ...] with x a scalar or coordinate tuple."""
        times = [t for t, _ in samples]
        points = [np.atleast_1d(x) for _, x in samples]
        return cls(np.array(times), np.array(points))

    @classmethod
    def line(cls, t0: float, t1: float, n: int = 2) -> "Path":
        ts = np.linspace(t0, t1, n)
        return cls(ts, ts.reshape(-1, 1))

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def check_time(self, t: float):
        start, end = self.t_start, self.t_end
        # the window rule of numerics; max keeps a NaN in its first argument
        if not within(max(start - t, t - end), max(abs(start), abs(end))):
            raise ValueError(f"time {t} outside path range [{self.t_start}, {self.t_end}]")

    def point_at(self, t: float) -> np.ndarray:
        """Piecewise-linear interpolation of the base point."""
        self.check_time(t)
        return _interpolate(self.times, self.points, t, 2)


@dataclass(frozen=True)
class Trivialization:
    """Fibre trivialization along a path: x -> invertible matrix l_x.

    Stored as a time-parametrized matrix field t -> l_{gamma(t)} so both
    point-function and per-sample tabulated constructions share one code
    path.  Invertibility is enforced where the matrices get used.
    """

    dim: int
    of_t: callable = field(repr=False)

    @classmethod
    def identity(cls, dim: int) -> "Trivialization":
        eye = np.eye(dim, dtype=complex)
        return cls(dim, lambda t: eye)

    @classmethod
    def from_point_function(cls, dim: int, func, path: Path) -> "Trivialization":
        return cls(dim, lambda t: np.asarray(func(path.point_at(t)), dtype=complex))

    @classmethod
    def from_time_function(cls, dim: int, func) -> "Trivialization":
        return cls(dim, lambda t: np.asarray(func(t), dtype=complex))

    @classmethod
    def from_samples(cls, path: Path, matrices) -> "Trivialization":
        mats = np.asarray(matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("trivialization matrices must be square")
        if mats.shape[0] != len(path.times):
            raise ValueError("need one trivialization matrix per path sample")
        ok = _well_conditioned(mats)
        if not np.all(ok):
            raise SingularTrivializationError(
                f"trivialization matrix at sample {int(np.argmin(ok))} is singular"
            )
        return cls(mats.shape[1], lambda t: _interpolate(path.times, mats, t, 2))

    def matrix(self, t: float) -> np.ndarray:
        m = np.asarray(self.of_t(t), dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"trivialization matrix has shape {m.shape}, expected square {self.dim}")
        return m

    def inverse(self, t: float) -> np.ndarray:
        m = self.matrix(t)
        if not _well_conditioned(m[None])[0]:
            raise SingularTrivializationError(f"trivialization singular at t={t}")
        return np.linalg.inv(m)


def _check_hermitian(h: np.ndarray, label):
    """Reject a stack unless within(max|H - H^dagger|, max|H|) for each matrix.

    The rule refuses a non-finite matrix, whose scale is not finite.  label(k)
    names matrix k in the error.
    """
    if h.size == 0:
        return
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and the rule refuses NaN
        residual = np.max(np.abs(h - np.swapaxes(h.conj(), -1, -2)), axis=(-2, -1))
    scale = np.max(np.abs(h), axis=(-2, -1))
    ok = within(residual, scale)
    if not np.all(ok):
        k = int(np.argmin(ok))
        raise HermiticityError(
            f"{label(k)} is non-finite or not Hermitian (residual {residual[k]:.3e}, "
            f"max |H| {scale[k]:.3e}; need residual <= 1e-12 max |H|)"
        )


@dataclass(frozen=True)
class HamiltonianSpec:
    """Time-dependent Hermitian matrix t -> H(t).

    A spec built from a callable of_t(t) -> (dim, dim) is evaluated node by
    node and checked for Hermiticity on every evaluation.  The constant,
    polynomial and tabulated kinds check their matrices once, when built
    (real-weight sums of Hermitian matrices stay Hermitian), and set the
    private `on_times`: it maps an array of N times to an (N, dim, dim)
    stack without a Python loop.  The constant and zero kinds also set the
    private `fixed`, the one matrix H of every time, which lets evolve take
    a matrix power in place of a step loop.
    """

    dim: int
    of_t: callable = field(repr=False)
    on_times: callable = field(default=None, init=False, repr=False)
    fixed: np.ndarray = field(default=None, init=False, repr=False)

    @classmethod
    def _checked(cls, matrices: np.ndarray, on_times) -> "HamiltonianSpec":
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise ValueError("hamiltonian matrices must be square")
        _check_hermitian(matrices, lambda k: f"hamiltonian matrix {k}")
        spec = cls(matrices.shape[-1], lambda t: on_times(np.array([t], dtype=float))[0])
        object.__setattr__(spec, "on_times", on_times)
        return spec

    @classmethod
    def zero(cls, dim: int) -> "HamiltonianSpec":
        return cls.constant(np.zeros((dim, dim), dtype=complex))

    @classmethod
    def constant(cls, matrix) -> "HamiltonianSpec":
        m = np.asarray(matrix, dtype=complex)
        spec = cls._checked(m[None], lambda ts: np.broadcast_to(m, ts.shape + m.shape))
        object.__setattr__(spec, "fixed", m)
        return spec

    @classmethod
    def polynomial(cls, coeff_matrices) -> "HamiltonianSpec":
        """H(t) = sum_k coeff[k] * t^k."""
        coeffs = np.array([np.asarray(c, dtype=complex) for c in coeff_matrices])
        powers = np.arange(len(coeffs))
        return cls._checked(
            coeffs,
            lambda ts: np.tensordot(ts[:, None] ** powers, coeffs, axes=1),
        )

    @classmethod
    def tabulated(cls, times, matrices, t_start: float, t_end: float) -> "HamiltonianSpec":
        """Piecewise-linear H through matrices[k] at increasing times[k].

        The table must cover [t_start, t_end], so nothing is extrapolated.
        """
        times = np.asarray(times, dtype=float)
        mats = np.asarray(matrices, dtype=complex)
        # a table that interpolation would misread or extrapolate is a bad config
        if times.ndim != 1 or len(times) != len(mats):
            raise ValueError("tabulated hamiltonian needs exactly one matrix per time")
        _check_increasing(times, "tabulated hamiltonian")
        if not (times[0] <= t_start and times[-1] >= t_end):
            raise ValueError("tabulated hamiltonian times must cover the whole path")
        return cls._checked(mats, lambda ts: _interpolate(times, mats, ts, 2))

    @classmethod
    def scaled(cls, profile, matrix) -> "HamiltonianSpec":
        """Commuting family H(t) = f(t) * H0."""
        m = np.asarray(matrix, dtype=complex)
        return cls(m.shape[0], lambda t: profile(t) * m)

    def matrix(self, t) -> np.ndarray:
        """H(t) as (dim, dim), or as an (N, dim, dim) stack for an array of N times."""
        times = np.asarray(t, dtype=float)
        nodes = times.reshape(-1)
        if self.on_times is not None:
            h = self.on_times(nodes)
        else:
            h = np.array([np.asarray(self.of_t(x), dtype=complex) for x in nodes])
            if h.shape[1:] != (self.dim, self.dim):
                raise ValueError(f"H has shape {h.shape[1:]}, expected square {self.dim}")
            _check_hermitian(h, lambda k: f"H(t={nodes[k]})")
        return h.reshape(times.shape + (self.dim, self.dim))


@dataclass(frozen=True)
class Lifting:
    """Fibre vector sampled along the path, with local cubic interpolation."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if len(times) != values.shape[0]:
            raise ValueError("one fibre vector per sample time required")
        if len(times) < 4:
            raise ValueError("insufficient samples for cubic interpolation (need >= 4)")
        _check_increasing(times, "lifting")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, func, times) -> "Lifting":
        times = np.asarray(times, dtype=float)
        return cls(times, np.array([np.asarray(func(t), dtype=complex) for t in times]))

    def at(self, t) -> np.ndarray:
        """Cubic Lagrange interpolation through the 4 nearest samples, at a time or an array."""
        ts, t = self.times, np.asarray(t, dtype=float)
        if not np.all(within(np.maximum(ts[0] - t, t - ts[-1]), max(abs(ts[0]), abs(ts[-1])))):
            raise ValueError(f"time {t} outside lifting range")
        return _interpolate(ts, self.values, t, 4)


# ---------------------------------------------------------------------------
# the integrator


# evolve forms the step matrices of at most this many steps at once, which
# bounds its transient memory whatever the step count
BLOCK_STEPS = 64


def _ordered_product(incs: np.ndarray) -> np.ndarray:
    """D with I + D = (I + incs[N-1]) @ ... @ (I + incs[0]), by pairwise batched products."""
    while len(incs) > 1:
        pairs = len(incs) // 2 * 2
        later, earlier = incs[1:pairs:2], incs[0:pairs:2]
        merged = later @ earlier
        merged += later
        merged += earlier
        incs = np.concatenate([merged, incs[pairs:]]) if pairs < len(incs) else merged
    return incs[0]


def _power_increment(inc: np.ndarray, n: int) -> np.ndarray:
    """E with I + E = (I + inc)^n, by binary powering that never rounds I + E.

    A square is E <- 2E + E @ E and a set bit of n folds in A <- A + E + E @ A,
    so it costs O(log n) products; every factor is a power of I + inc, so
    they commute.
    """
    acc = np.zeros_like(inc)
    while n:
        if n & 1:
            acc = acc + inc + inc @ acc
        n >>= 1
        if n:
            inc = 2 * inc + inc @ inc
    return acc


def evolve(h: HamiltonianSpec, t: float, s: float, dt: float) -> np.ndarray:
    """Time-ordered solution of i dU/dt = H(t) U, U(s,s) = I (classical RK4).

    Integrates forward or backward; dt is the magnitude of the step.  The
    steps are those of numerics.rk4_linear.  A step matrix is formed as an
    increment D = R - I: one rk4_step of i dD/dt = H (I + D) from D = 0, the
    same stages as a step from U = I.  Never rounding I + D keeps the
    roundoff to the size of one step's change, below the step loop's.

    A time-independent spec (h.fixed, set by the constant and zero kinds)
    has one step matrix for every step, so U = (I + D)^N comes from
    O(log N) products by _power_increment; at 10^6 steps it ends within
    1e-14 of exp(-iHt).  Every other spec takes its steps BLOCK_STEPS at a
    time: one batched rk4_step gives a block's increments D_n, and their
    ordered product advances U.
    """
    steps, step = _step_grid(s, t, dt)
    eye = np.eye(h.dim, dtype=complex)
    zero = np.zeros_like(eye)
    if h.fixed is not None:
        inc = rk4_step(lambda time, d: h.fixed @ (eye + d), zero, s, step)
        return eye + _power_increment(inc, steps)
    u = eye
    for lo in range(0, steps, BLOCK_STEPS):
        starts = s + step * np.arange(lo, min(lo + BLOCK_STEPS, steps))
        incs = rk4_step(lambda time, d: h.matrix(time) @ (eye + d), zero, starts, step)
        u = u + _ordered_product(incs) @ u
    return u


# ---------------------------------------------------------------------------
# the transport


@dataclass
class Transport:
    """Two-point operator family U(t,s) along a path.

    U(t,s) = l(t)^-1 @ fibre_evolution(t,s) @ l(s); fibre evolutions are
    cached per (t,s) pair so repeated queries are cheap and query-order
    independent.
    """

    path: Path
    trivialization: Trivialization
    hamiltonian: HamiltonianSpec
    dt: float = 1e-3
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def build(cls, path, hamiltonian, trivialization=None, dt=1e-3):
        if trivialization is None:
            trivialization = Trivialization.identity(hamiltonian.dim)
        if hamiltonian.dim != trivialization.dim:
            raise ValueError("Hamiltonian and trivialization dimensions differ")
        return cls(path, trivialization, hamiltonian, dt)

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def fibre_evolution(self, t: float, s: float) -> np.ndarray:
        key = (float(t), float(s))
        if key not in self._cache:
            self._cache[key] = evolve(self.hamiltonian, t, s, self.dt)
        return self._cache[key]

    def propagate(self, times, s: float) -> np.ndarray:
        """U(t_k, s) for each t_k in times, as an (N, dim, dim) stack.

        Chains the fibre evolutions s -> times[0] -> times[1] -> ..., each
        segment integrated once, so sorted times cost one sweep of the path.
        The pairwise cache is neither read nor written: checks that compare
        operator() results keep comparing independent integrations.
        """
        self.path.check_time(s)
        out = np.empty((len(times), self.dim, self.dim), dtype=complex)
        fibre, prev = np.eye(self.dim, dtype=complex), s
        for k, t in enumerate(times):
            self.path.check_time(t)
            fibre = evolve(self.hamiltonian, t, prev, self.dt) @ fibre
            prev = t
            out[k] = self._conjugate(t, s, fibre)
        return out

    def operator(self, t: float, s: float) -> np.ndarray:
        self.path.check_time(t)
        self.path.check_time(s)
        return self._conjugate(t, s, self.fibre_evolution(t, s))

    def _conjugate(self, t: float, s: float, fibre: np.ndarray) -> np.ndarray:
        """l(t)^-1 @ fibre @ l(s), the transport of the fibre evolution E(t,s)."""
        return self.trivialization.inverse(t) @ fibre @ self.trivialization.matrix(s)

    # -- diagnostics --------------------------------------------------------

    def cocycle_residual(self, t: float, s: float, r: float) -> float:
        lhs = self.operator(t, s) @ self.operator(s, r)
        rhs = self.operator(t, r)
        return float(np.max(np.abs(lhs - rhs)))

    def round_trip_residual(self, t: float, s: float) -> float:
        """|U(s,t) U(t,s) - I|: the two factors integrate in opposite directions."""
        return float(np.max(np.abs(self.operator(s, t) @ self.operator(t, s) - np.eye(self.dim))))

    def unitarity_residual(self, t: float, s: float) -> float:
        """Defect of unitarity in the l-conjugated inner product."""
        u = self.operator(t, s)
        gram_t = self.trivialization.matrix(t)
        gram_s = self.trivialization.matrix(s)
        m_t = gram_t.conj().T @ gram_t
        m_s = gram_s.conj().T @ gram_s
        return float(np.max(np.abs(u.conj().T @ m_t @ u - m_s)))


def _check_step(h: float):
    """A stencil step must be positive; operator checks that both stencil times lie on the path."""
    if not h > 0:
        raise ValueError(f"stencil step must be positive, got {h}")


def connection_coeffs(transport: Transport, s: float, h: float = 1e-4) -> np.ndarray:
    """Connection matrix at s: central-difference d/dt U(s,t) at t=s.

    Sign convention: for constant Hermitian H and identity trivialization
    this returns (i/hbar) H.
    """
    _check_step(h)
    return (transport.operator(s, s + h) - transport.operator(s, s - h)) / (2 * h)


def path_derivation(
    lifting: Lifting, transport: Transport, s: float, h: float = 1e-4
) -> np.ndarray:
    """Derivation along the path, symmetrized transport-difference stencil:

        D lambda (s) ~ [U(s,s+h) lambda(s+h) - U(s,s-h) lambda(s-h)] / (2h)
    """
    _check_step(h)
    plus = transport.operator(s, s + h) @ lifting.at(s + h)
    minus = transport.operator(s, s - h) @ lifting.at(s - h)
    return (plus - minus) / (2 * h)


def solve_bundle_schrodinger(transport: Transport, psi0, t: float) -> np.ndarray:
    """Solution of D Psi = 0 with Psi(t_start) = psi0: Psi(t) = U(t, t_start) psi0."""
    psi0 = np.asarray(psi0, dtype=complex)
    return transport.operator(t, transport.path.t_start) @ psi0


def matrix_bundle_hamiltonian(transport: Transport, t: float, h: float = 1e-4) -> np.ndarray:
    """i hbar * d/dt U(t, t0) @ U(t0, t), by central differences."""
    _check_step(h)
    t0 = transport.path.t_start
    dudt = (transport.operator(t + h, t0) - transport.operator(t - h, t0)) / (2 * h)
    return 1j * HBAR * dudt @ transport.operator(t0, t)


# ---------------------------------------------------------------------------
# scenario files (JSON)


def _matrix_from_json(obj) -> np.ndarray:
    """Complex matrix from {"re": [[...]], "im": [[...]]} or a plain real array."""
    if isinstance(obj, dict):
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", 0.0), dtype=float)
        # filled part by part: re + 1j * im would turn an infinite im into nan + inf j
        out = np.empty(np.broadcast_shapes(re.shape, im.shape), dtype=complex)
        out.real, out.imag = re, im
        return out
    return np.asarray(obj, dtype=float).astype(complex)


def matrix_to_json(mat) -> dict:
    mat = np.asarray(mat)
    return {"re": np.real(mat).tolist(), "im": np.imag(mat).tolist()}


@dataclass(frozen=True)
class Scenario:
    """Parsed transport scenario: everything needed to build a Transport."""

    fibre_dim: int
    path: Path
    hamiltonian: HamiltonianSpec
    trivialization: Trivialization
    dt: float
    tolerances: dict


# the transport checks' tolerance names and defaults; a scenario file's
# "tolerances" and --tol override them by name
TOLERANCES = {"cocycle": 1e-8, "correspondence": 1e-6, "unitarity": 1e-8}

# one evolve block peaks near 6.2 KB * fibre_dim^2 (tracemalloc: 96.5 MiB at 128)
MAX_FIBRE_DIM = 128


def scenario_from_dict(data: dict) -> Scenario:
    try:
        dim = int(data["fibre_dim"])
        if not 1 <= dim <= MAX_FIBRE_DIM:
            raise ValueError(f"fibre_dim must be in [1, {MAX_FIBRE_DIM}], got {dim}")
        path = Path.from_samples([(s["t"], s["x"]) for s in data["path"]["samples"]])
        ham_spec = data.get("hamiltonian", {"type": "zero"})
        kind = ham_spec.get("type", "zero")
        if kind == "zero":
            ham = HamiltonianSpec.zero(dim)
        elif kind == "constant":
            ham = HamiltonianSpec.constant(_matrix_from_json(ham_spec["matrix"]))
        elif kind == "polynomial":
            ham = HamiltonianSpec.polynomial(
                [_matrix_from_json(c) for c in ham_spec["coeffs"]]
            )
        elif kind == "tabulated":
            ham = HamiltonianSpec.tabulated(
                ham_spec["times"],
                [_matrix_from_json(m) for m in ham_spec["matrices"]],
                path.t_start,
                path.t_end,
            )
        else:
            raise ValueError(f"unknown hamiltonian type {kind!r}")
        triv_spec = data.get("trivialization", {"type": "identity"})
        tkind = triv_spec.get("type", "identity")
        if tkind == "identity":
            triv = Trivialization.identity(dim)
        elif tkind == "tabulated":
            triv = Trivialization.from_samples(
                path, [_matrix_from_json(m) for m in triv_spec["matrices"]]
            )
        else:
            raise ValueError(f"unknown trivialization type {tkind!r}")
        dt = float(data.get("dt", 1e-3))
        tol = {**TOLERANCES, **data.get("tolerances", {})}
        unknown = [name for name in tol if name not in TOLERANCES]
        if unknown:
            raise ValueError(
                f"unknown tolerance {unknown[0]!r}; a scenario reads {', '.join(TOLERANCES)}"
            )
        tol = {name: float(value) for name, value in tol.items()}
    except KeyError as exc:
        raise ValueError(f"scenario missing required field: {exc}") from exc
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"scenario field has the wrong type or value: {exc}") from exc
    if ham.dim != dim:
        raise ValueError("hamiltonian dimension disagrees with fibre_dim")
    return Scenario(dim, path, ham, triv, dt, tol)


def load_scenario(path_str: str) -> Scenario:
    with open(path_str) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario JSON parse error at line {exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(data)


def qubit_scenario_dict(with_gauge: bool = False) -> dict:
    """Reference scenario: constant H = diag(1, -1) on a straight 3-sample path."""
    data = {
        "fibre_dim": 2,
        "hamiltonian": {"type": "constant", "matrix": {"re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]}},
        "path": {"samples": [{"t": 0.0, "x": [0.0]}, {"t": 0.5, "x": [0.5]}, {"t": 1.0, "x": [1.0]}]},
        "dt": 1e-3,
        "tolerances": {"cocycle": 1e-8, "correspondence": 1e-6},
    }
    if with_gauge:
        mats = []
        for t in (0.0, 0.5, 1.0):
            c, s = np.cos(0.4 * t), np.sin(0.4 * t)
            mats.append({"re": [[c, -s], [s, c]], "im": [[0, 0], [0, 0]]})
        data["trivialization"] = {"type": "tabulated", "matrices": mats}
    return data
