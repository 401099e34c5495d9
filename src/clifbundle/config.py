"""Global configuration knobs shared across the library."""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_NMAX = 10

# Natural units used everywhere in the dynamics modules (time evolution,
# Dirac/Klein-Gordon operators).  Exposed as a named constant so that the
# convention is greppable rather than implicit.
HBAR = 1.0


def max_dimension() -> int:
    """Ceiling on the dimension of the underlying vector space.

    Override with the ``CLIFBUNDLE_NMAX`` environment variable.
    """
    raw = os.environ.get("CLIFBUNDLE_NMAX")
    if raw is None:
        return DEFAULT_NMAX
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"CLIFBUNDLE_NMAX must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"CLIFBUNDLE_NMAX must be >= 1, got {value}")
    return value


def check_dimension(n: int) -> int:
    """Validate a vector-space dimension against the configured ceiling."""
    nmax = max_dimension()
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"dimension must be an integer, got {type(n).__name__}")
    if not 1 <= n <= nmax:
        raise ValueError(f"dimension must satisfy 1 <= n <= {nmax}, got {n}")
    return n


@dataclass(frozen=True)
class TransportTolerances:
    """Default residual thresholds for the transport checks.

    The cocycle and correspondence residuals inherit the integrator error;
    the stock values suit the qubit-scale scenarios of the verification
    suite, and a scenario file or ``--tol`` overrides them.
    """

    cocycle: float = 1e-8
    correspondence: float = 1e-6
    unitarity: float = 1e-8
