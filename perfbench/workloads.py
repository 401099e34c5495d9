"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of the workload seed.  It returns a plan:
a list of operations plus the input files they read, all as plain JSON data,
so that one seed always serializes to the same bytes.  The program under
test only ever sees the generated inputs, never the seed.

Operation kinds:

- ``{"kind": "cli", "argv": [...]}``: one ``clifbundle`` command line, run
  in-process through ``clifbundle.cli.main`` with ``--out`` appended.
- ``{"kind": "ga", ...}``: one operand triple for the Clifford-product laws,
  run against the public ``clifbundle.ga`` functions.

Exact scalars are written as ``"p/q"`` strings and floats as JSON numbers,
which round-trip exactly.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np

WORKLOADS = ("spinor-ladder", "ga-products", "transport-scenarios", "field-evolution")

# spinor-ladder: every signature with p+q <= 5, plus one real (3,3) and one
# quaternionic (5,1) algebra whose idempotent searches exit early and run
# exhaustively respectively.
SPINOR_SIGNATURES = [(p, n - p) for n in range(1, 6) for p in range(n + 1)] + [(3, 3), (5, 1)]

# field-evolution: per-step-overhead-bound 1-D runs, bandwidth-bound 3-D runs
# (16^3 spinor arrays outgrow L2, 8^3 ones fit) and the short checks.
FIELD_ARGVS = [
    ["dirac", "--scenario", "dispersion", "--grid", "64"],
    ["dirac", "--scenario", "dispersion", "--grid", "256",
     "--potential", "plane-wave-gauge", "--charge", "0.5"],
    ["dirac", "--scenario", "kg-roundtrip", "--grid", "128"],
    ["dirac", "--scenario", "kg-roundtrip", "--grid", "1024"],
    ["dirac", "--scenario", "dispersion", "--grid", "8,8,8"],
    ["dirac", "--scenario", "dispersion", "--grid", "16,16,16"],
    ["dirac", "--scenario", "dalembert", "--refine", "2"],
]
FIELD_SEEDED_SCENARIOS = ("hermiticity", "wrap-check")

SHIPPED_SCENARIOS = ("scenarios/qubit.json", "scenarios/qubit_gauged.json")
FIBRE_DIMS = (2, 4, 8)
HAMILTONIAN_KINDS = ("constant", "polynomial", "tabulated")
TRIVIALIZATION_KINDS = ("identity", "tabulated")
H_NORM_RANGE = (1.0, 8.0)
# Sample times of tabulated Hamiltonians.  The CLI takes its derivative
# checks at t = 0.25, the middle of the first path segment, so no kink of
# the piecewise-linear H sits there.
H_TABLE_TIMES = (0.0, 0.4, 0.7, 1.0)
PATH_TIMES = (0.0, 0.5, 1.0)
# rotation rate of tabulated trivializations, as in scenarios/qubit_gauged.json
GAUGE_RATE = 0.4

GA_DIMS = (4, 5, 6)
GA_METRICS = ("diagonal", "general")
GA_DENSITIES = ("sparse", "dense")
GA_SCALARS = ("exact", "float")
GA_TRIPLES_PER_CELL = 1
GA_SPARSE_TERMS = 6


# placeholder in argv for the directory the generated files are written to
INPUTS_DIR = "{inputs}"


def cli_op(argv: list[str]) -> dict:
    return {"kind": "cli", "argv": list(argv)}


def plan(workload: str, seed: int) -> dict:
    """The operations and input files of one workload for one seed."""
    makers = {
        "spinor-ladder": spinor_ladder,
        "ga-products": ga_products,
        "transport-scenarios": transport_scenarios,
        "field-evolution": field_evolution,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return makers[workload](seed)


def plan_bytes(workload: str, seed: int) -> bytes:
    """Canonical serialization, the unit of the determinism self-test."""
    return json.dumps(plan(workload, seed), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# spinor-ladder and field-evolution: fixed operation sets in seeded order


def spinor_ladder(seed: int) -> dict:
    rng = random.Random(seed)
    sigs = list(SPINOR_SIGNATURES)
    rng.shuffle(sigs)
    ops = [cli_op(["spinor-rep", "--signature", f"{p},{q}"]) for p, q in sigs]
    verify = ["verify", "--seed", str(rng.randrange(1 << 31))]
    for p, q in sigs:
        verify += ["--signature", f"{p},{q}"]
    ops.append(cli_op(verify))
    return {"ops": ops, "files": {}}


def field_evolution(seed: int) -> dict:
    rng = random.Random(seed)
    argvs = [list(a) for a in FIELD_ARGVS]
    for scenario in FIELD_SEEDED_SCENARIOS:
        argvs.append(["dirac", "--scenario", scenario, "--seed", str(rng.randrange(1 << 31))])
    rng.shuffle(argvs)
    return {"ops": [cli_op(a) for a in argvs], "files": {}}


# ---------------------------------------------------------------------------
# transport-scenarios


def _hermitian(rng: random.Random, dim: int) -> np.ndarray:
    re = np.array([[rng.gauss(0, 1) for _ in range(dim)] for _ in range(dim)])
    im = np.array([[rng.gauss(0, 1) for _ in range(dim)] for _ in range(dim)])
    m = re + 1j * im
    return (m + m.conj().T) / 2


def _spectral_norm(h: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


def _complex_json(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _hamiltonian_spec(rng: random.Random, kind: str, dim: int, norm: float) -> dict:
    if kind == "constant":
        h = _hermitian(rng, dim)
        return {"type": "constant", "matrix": _complex_json(h * (norm / _spectral_norm(h)))}
    if kind == "polynomial":
        # H(t) = H0 + H1 t + H2 t^2, scaled so the largest sampled ||H(t)|| is `norm`
        coeffs = [_hermitian(rng, dim) for _ in range(3)]
        ts = np.linspace(0.0, 1.0, 11)
        peak = max(_spectral_norm(sum(c * t**k for k, c in enumerate(coeffs))) for t in ts)
        return {"type": "polynomial", "coeffs": [_complex_json(c * (norm / peak)) for c in coeffs]}
    mats = [_hermitian(rng, dim) for _ in H_TABLE_TIMES]
    peak = max(_spectral_norm(m) for m in mats)
    return {
        "type": "tabulated",
        "times": list(H_TABLE_TIMES),
        "matrices": [_complex_json(m * (norm / peak)) for m in mats],
    }


def _trivialization_spec(rng: random.Random, kind: str, dim: int) -> dict:
    if kind == "identity":
        return {"type": "identity"}
    # l(t) = exp(i GAUGE_RATE t K) at the path samples, K Hermitian with unit norm
    k = _hermitian(rng, dim)
    evals, evecs = np.linalg.eigh(k / _spectral_norm(k))
    mats = []
    for t in PATH_TIMES:
        phase = np.exp(1j * GAUGE_RATE * t * evals)
        mats.append(_complex_json((evecs * phase) @ evecs.conj().T))
    return {"type": "tabulated", "matrices": mats}


def transport_scenarios(seed: int) -> dict:
    """The two shipped scenarios plus six generated ones.

    The generated files pair every Hamiltonian kind with both trivialization
    kinds, which fixes most of the cost; each fibre dimension appears twice,
    assigned by a seeded shuffle.  Spectral norms are stratified over
    H_NORM_RANGE so that every seed spans it.
    """
    rng = random.Random(seed)
    cells = [(kind, triv) for kind in HAMILTONIAN_KINDS for triv in TRIVIALIZATION_KINDS]
    dims = list(FIBRE_DIMS) * 2
    rng.shuffle(dims)
    strata = list(range(len(cells)))
    rng.shuffle(strata)
    lo, hi = H_NORM_RANGE
    files = {}
    ops = [cli_op(["transport", "--scenario", path]) for path in SHIPPED_SCENARIOS]
    for idx, ((kind, triv), dim, stratum) in enumerate(zip(cells, dims, strata)):
        norm = lo + (hi - lo) * (stratum + rng.random()) / len(cells)
        name = f"gen{idx}_d{dim}_{kind}_{triv}.json"
        files[name] = {
            "fibre_dim": dim,
            "hamiltonian": _hamiltonian_spec(rng, kind, dim, norm),
            "trivialization": _trivialization_spec(rng, triv, dim),
            "path": {"samples": [{"t": t, "x": [t]} for t in PATH_TIMES]},
            "dt": 1e-3,
        }
        ops.append(cli_op(["transport", "--scenario", INPUTS_DIR + "/" + name]))
    rng.shuffle(ops)
    return {"ops": ops, "files": files}


# ---------------------------------------------------------------------------
# ga-products


def _gram(rng: random.Random, n: int, kind: str) -> list[list[int]]:
    """diag(+-1), or its congruence P^T diag(+-1) P by a unimodular P.

    P = I + sum_i s_i E_{i,i+1} with s_i = +-2 keeps det P = 1 and makes the
    Gram matrix tridiagonal with no zero entry on its three diagonals
    (G_ii = d_i + 4 d_{i-1}), so the general-metric work per product does
    not depend on the seed through the sparsity pattern.
    """
    d = [rng.choice((1, -1)) for _ in range(n)]
    if kind == "diagonal":
        return [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    s = [2 * rng.choice((1, -1)) for _ in range(n - 1)]
    p = [[1 if i == j else (s[i] if j == i + 1 else 0) for j in range(n)] for i in range(n)]
    return [[sum(p[k][i] * d[k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _scalar(rng: random.Random, scalars: str):
    if scalars == "exact":
        return str(Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 4)))
    return rng.uniform(-1.0, 1.0)


def _operand(rng: random.Random, n: int, density: str, scalars: str) -> list:
    masks = range(1 << n) if density == "dense" else sorted(rng.sample(range(1 << n), GA_SPARSE_TERMS))
    return [[m, _scalar(rng, scalars)] for m in masks]


def ga_products(seed: int) -> dict:
    """Operand triples over dimension x metric x density x scalar type."""
    rng = random.Random(seed)
    ops = []
    for n in GA_DIMS:
        for metric in GA_METRICS:
            for density in GA_DENSITIES:
                for scalars in GA_SCALARS:
                    for _ in range(GA_TRIPLES_PER_CELL):
                        ops.append({
                            "kind": "ga",
                            "n": n,
                            "metric": metric,
                            "density": density,
                            "scalars": scalars,
                            "gram": _gram(rng, n, metric),
                            "a": _operand(rng, n, density, scalars),
                            "b": _operand(rng, n, density, scalars),
                            "c": _operand(rng, n, density, scalars),
                            "v": [[1 << i, _scalar(rng, scalars)] for i in range(n)],
                        })
    rng.shuffle(ops)
    return {"ops": ops, "files": {}}
