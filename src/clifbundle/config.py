"""Global configuration knobs shared across the library: HBAR and the dimension ceiling.

Check tolerances are not set here.  Each command keeps one table of its
tolerance names and defaults beside the checks that read them:
``transport.TOLERANCES`` and ``cli.DIRAC_SCENARIOS``.
"""

from __future__ import annotations

import os

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

