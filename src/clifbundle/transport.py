"""Evolution transport along discretized paths.

A path carries sampled base points; a trivialization identifies each fibre
with the typical fibre; the fibre evolution operator solves the matrix
Schrodinger equation i dU/dt = H(t) U with a classical 4th-order one-step
integrator.  The transport is the trivialization-conjugated evolution
U(t,s) = l(t)^-1 @ fibre_evolution(t,s) @ l(s), from which connection
coefficients and the derivation along the path are read off by finite
differences.  hbar = 1 throughout (config.HBAR).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .config import HBAR, TransportTolerances

__all__ = [
    "HBAR",
    "TransportTolerances",
    "Path",
    "Trivialization",
    "HamiltonianSpec",
    "Lifting",
    "Transport",
    "evolve",
    "rk4_linear",
    "transport_operator",
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


def _interp_linear(times: np.ndarray, values: np.ndarray, t: float) -> np.ndarray:
    """Piecewise-linear interpolation of values[k] sampled at increasing times[k]."""
    idx = np.clip(np.searchsorted(times, t), 1, len(times) - 1)
    t0, t1 = times[idx - 1], times[idx]
    w = (t - t0) / (t1 - t0)
    return (1 - w) * values[idx - 1] + w * values[idx]


@dataclass(frozen=True)
class Path:
    """Sampled world line: strictly increasing times with base-point coordinates."""

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if points.shape[0] != times.shape[0]:
            points = points.T
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("a path needs at least 2 samples")
        if not np.all(np.diff(times) > 0):
            raise ValueError("path times must be strictly increasing")
        if points.shape[0] != len(times):
            raise ValueError("one base point per sample time required")
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
        if not (self.t_start - 1e-12 <= t <= self.t_end + 1e-12):
            raise ValueError(f"time {t} outside path range [{self.t_start}, {self.t_end}]")

    def point_at(self, t: float) -> np.ndarray:
        """Piecewise-linear interpolation of the base point."""
        self.check_time(t)
        return _interp_linear(self.times, self.points, t)


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
        if mats.shape[0] != len(path.times):
            raise ValueError("need one trivialization matrix per path sample")
        dim = mats.shape[1]
        for k, m in enumerate(mats):
            if not np.linalg.cond(m) < 1e12:
                raise SingularTrivializationError(
                    f"trivialization matrix at sample {k} is singular"
                )
        return cls(dim, lambda t: _interp_linear(path.times, mats, t))

    def matrix(self, t: float) -> np.ndarray:
        m = np.asarray(self.of_t(t), dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"trivialization matrix has shape {m.shape}, expected square {self.dim}")
        return m

    def inverse(self, t: float) -> np.ndarray:
        m = self.matrix(t)
        if not np.linalg.cond(m) < 1e12:
            raise SingularTrivializationError(f"trivialization singular at t={t}")
        return np.linalg.inv(m)

    def smoothness_report(self, times) -> float:
        """Max finite-difference variation between consecutive samples (diagnostic)."""
        mats = [self.matrix(t) for t in times]
        diffs = [
            np.max(np.abs(b - a)) / max(dt, 1e-300)
            for a, b, dt in zip(mats, mats[1:], np.diff(np.asarray(times, dtype=float)))
        ]
        return float(max(diffs, default=0.0))


@dataclass(frozen=True)
class HamiltonianSpec:
    """Time-dependent Hermitian matrix t -> H(t)."""

    dim: int
    of_t: callable = field(repr=False)

    @classmethod
    def zero(cls, dim: int) -> "HamiltonianSpec":
        z = np.zeros((dim, dim), dtype=complex)
        return cls(dim, lambda t: z)

    @classmethod
    def constant(cls, matrix) -> "HamiltonianSpec":
        m = np.asarray(matrix, dtype=complex)
        return cls(m.shape[0], lambda t: m)

    @classmethod
    def polynomial(cls, coeff_matrices) -> "HamiltonianSpec":
        """H(t) = sum_k coeff[k] * t^k."""
        coeffs = [np.asarray(c, dtype=complex) for c in coeff_matrices]

        def of_t(t: float) -> np.ndarray:
            acc = np.zeros_like(coeffs[0])
            tk = 1.0
            for c in coeffs:
                acc = acc + tk * c
                tk *= t
            return acc

        return cls(coeffs[0].shape[0], of_t)

    @classmethod
    def scaled(cls, profile, matrix) -> "HamiltonianSpec":
        """Commuting family H(t) = f(t) * H0."""
        m = np.asarray(matrix, dtype=complex)
        return cls(m.shape[0], lambda t: profile(t) * m)

    def matrix(self, t: float) -> np.ndarray:
        h = np.asarray(self.of_t(t), dtype=complex)
        residual = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
        if residual > 1e-12:
            raise HermiticityError(
                f"H(t={t}) is not Hermitian (residual {residual:.3e} > 1e-12)"
            )
        return h


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
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, func, times) -> "Lifting":
        times = np.asarray(times, dtype=float)
        return cls(times, np.array([np.asarray(func(t), dtype=complex) for t in times]))

    def at(self, t: float) -> np.ndarray:
        """Cubic Lagrange interpolation through the 4 nearest samples."""
        ts = self.times
        if not (ts[0] - 1e-12 <= t <= ts[-1] + 1e-12):
            raise ValueError(f"time {t} outside lifting range")
        idx = bisect_left(ts, t)
        lo = min(max(idx - 2, 0), len(ts) - 4)
        sel = slice(lo, lo + 4)
        xs, ys = ts[sel], self.values[sel]
        out = np.zeros_like(ys[0])
        for i in range(4):
            w = 1.0
            for j in range(4):
                if i != j:
                    w *= (t - xs[j]) / (xs[i] - xs[j])
            out = out + w * ys[i]
        return out


# ---------------------------------------------------------------------------
# the integrator


def rk4_linear(apply_h, y0: np.ndarray, s: float, t: float, dt: float) -> np.ndarray:
    """Classical RK4 for i hbar dy/dt = apply_h(t, y) from y(s) = y0 to y(t).

    Takes ceil(|t - s| / dt) equal steps, so dt bounds every step taken; time
    may run forward or backward.  Returns a new array.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    y = np.array(y0, copy=True)
    span = t - s
    if span == 0:
        return y
    steps = max(1, int(np.ceil(abs(span) / dt)))
    step = span / steps

    def rhs(time: float, state: np.ndarray) -> np.ndarray:
        return (-1j / HBAR) * apply_h(time, state)

    time = s
    for _ in range(steps):
        k1 = rhs(time, y)
        k2 = rhs(time + step / 2, y + step / 2 * k1)
        k3 = rhs(time + step / 2, y + step / 2 * k2)
        k4 = rhs(time + step, y + step * k3)
        y = y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        time += step
    return y


def evolve(h: HamiltonianSpec, t: float, s: float, dt: float) -> np.ndarray:
    """Time-ordered solution of i dU/dt = H(t) U, U(s,s) = I (classical RK4).

    Integrates forward or backward; dt is the magnitude of the step.
    """
    return rk4_linear(
        lambda time, u: h.matrix(time) @ u, np.eye(h.dim, dtype=complex), s, t, dt
    )


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
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, path, hamiltonian=None, trivialization=None, dt=1e-3, dim=None):
        if hamiltonian is None:
            if dim is None and trivialization is None:
                raise ValueError("need a Hamiltonian, a trivialization, or a dim")
            dim = dim if dim is not None else trivialization.dim
            hamiltonian = HamiltonianSpec.zero(dim)
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

    def operator(self, t: float, s: float) -> np.ndarray:
        self.path.check_time(t)
        self.path.check_time(s)
        if t == s:
            # U(t,t) = I holds exactly, not just to inversion roundoff
            return np.eye(self.dim, dtype=complex)
        l_t_inv = self.trivialization.inverse(t)
        l_s = self.trivialization.matrix(s)
        return l_t_inv @ self.fibre_evolution(t, s) @ l_s

    # -- diagnostics --------------------------------------------------------

    def cocycle_residual(self, t: float, s: float, r: float) -> float:
        lhs = self.operator(t, s) @ self.operator(s, r)
        rhs = self.operator(t, r)
        return float(np.max(np.abs(lhs - rhs)))

    def identity_residual(self, t: float) -> float:
        return float(np.max(np.abs(self.operator(t, t) - np.eye(self.dim))))

    def unitarity_residual(self, t: float, s: float) -> float:
        """Defect of unitarity in the l-conjugated inner product."""
        u = self.operator(t, s)
        gram_t = self.trivialization.matrix(t)
        gram_s = self.trivialization.matrix(s)
        m_t = gram_t.conj().T @ gram_t
        m_s = gram_s.conj().T @ gram_s
        return float(np.max(np.abs(u.conj().T @ m_t @ u - m_s)))


def transport_operator(
    l: Trivialization, fibre_evolution, path: Path, t: float, s: float
) -> np.ndarray:
    """Free-function form: l(t)^-1 @ fibre_evolution(t, s) @ l(s)."""
    path.check_time(t)
    path.check_time(s)
    return l.inverse(t) @ np.asarray(fibre_evolution(t, s), dtype=complex) @ l.matrix(s)


def _interior_time(transport: Transport, s: float, h: float):
    if h <= 0:
        raise ValueError(f"stencil step must be positive, got {h}")
    path = transport.path
    if s - h < path.t_start - 1e-12 or s + h > path.t_end + 1e-12:
        raise ValueError(
            f"time {s} too close to the path boundary for a +-{h} stencil"
        )


def connection_coeffs(transport: Transport, s: float, h: float = 1e-4) -> np.ndarray:
    """Connection matrix at s: central-difference d/dt U(s,t) at t=s.

    Sign convention: for constant Hermitian H and identity trivialization
    this returns (i/hbar) H.
    """
    _interior_time(transport, s, h)
    return (transport.operator(s, s + h) - transport.operator(s, s - h)) / (2 * h)


def path_derivation(
    lifting: Lifting, transport: Transport, s: float, h: float = 1e-4
) -> np.ndarray:
    """Derivation along the path, symmetrized transport-difference stencil:

        D lambda (s) ~ [U(s,s+h) lambda(s+h) - U(s,s-h) lambda(s-h)] / (2h)
    """
    _interior_time(transport, s, h)
    plus = transport.operator(s, s + h) @ lifting.at(s + h)
    minus = transport.operator(s, s - h) @ lifting.at(s - h)
    return (plus - minus) / (2 * h)


def solve_bundle_schrodinger(transport: Transport, psi0, t: float) -> np.ndarray:
    """Solution of D Psi = 0 with Psi(t_start) = psi0: Psi(t) = U(t, t_start) psi0."""
    psi0 = np.asarray(psi0, dtype=complex)
    return transport.operator(t, transport.path.t_start) @ psi0


def matrix_bundle_hamiltonian(transport: Transport, t: float, h: float = 1e-4) -> np.ndarray:
    """i hbar * d/dt U(t, t0) @ U(t0, t), by central differences."""
    _interior_time(transport, t, h)
    t0 = transport.path.t_start
    dudt = (transport.operator(t + h, t0) - transport.operator(t - h, t0)) / (2 * h)
    return 1j * HBAR * dudt @ transport.operator(t0, t)


# ---------------------------------------------------------------------------
# scenario files (JSON)


def _matrix_from_json(obj) -> np.ndarray:
    """Complex matrix from {"re": [[...]], "im": [[...]]} or a plain real array."""
    if isinstance(obj, dict):
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
        return re + 1j * im
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
    tolerances: TransportTolerances


def scenario_from_dict(data: dict) -> Scenario:
    try:
        dim = int(data["fibre_dim"])
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
            times = np.asarray(ham_spec["times"], dtype=float)
            mats = np.array([_matrix_from_json(m) for m in ham_spec["matrices"]])
            # a table that interpolation would misread or extrapolate is a bad config
            if times.ndim != 1 or len(times) != len(mats):
                raise ValueError("tabulated hamiltonian needs exactly one matrix per time")
            if mats.shape[1:] != (dim, dim):
                raise ValueError(f"tabulated hamiltonian matrices must be {dim}x{dim}")
            if not np.all(np.diff(times) > 0):
                raise ValueError("tabulated hamiltonian times must be strictly increasing")
            if not (times[0] <= path.t_start and times[-1] >= path.t_end):
                raise ValueError("tabulated hamiltonian times must cover the whole path")
            ham = HamiltonianSpec(dim, lambda t: _interp_linear(times, mats, t))
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
        tol_spec = data.get("tolerances", {})
        tol = TransportTolerances(
            cocycle=float(tol_spec.get("cocycle", TransportTolerances.cocycle)),
            correspondence=float(
                tol_spec.get("correspondence", TransportTolerances.correspondence)
            ),
            unitarity=float(tol_spec.get("unitarity", TransportTolerances.unitarity)),
        )
    except KeyError as exc:
        raise ValueError(f"scenario missing required field: {exc}") from exc
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
