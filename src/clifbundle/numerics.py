"""Float numerics of every layer: one rule for float gates, one RK4 scheme, one conditioning gate.

Every float gate decides by within(residual, scale); a time window takes
the signed distance of t outside its range at scale max(|t_start|, |t_end|).
Evolution transport (``transport.evolve``) and the lattice fields
(``fields``) both step i hbar dy/dt = H(t) y with the classical RK4 scheme
here, on the step grid of _step_grid, and both refuse a matrix that
_well_conditioned flags.  hbar = 1 throughout (HBAR).  This module imports
nothing from clifbundle.
"""

from __future__ import annotations

import numpy as np

# natural units in every dynamics module, named so the convention is greppable
HBAR = 1.0

TOLERANCE = 1e-12


def within(residual, scale):
    """residual <= 1e-12 scale, elementwise; false wherever either is NaN or infinite."""
    # two floats take float comparisons alone, which keeps a scalar gate cheap
    if isinstance(residual, float) and isinstance(scale, float):
        return -np.inf < residual <= TOLERANCE * scale < np.inf
    residual, scale = np.asarray(residual), np.asarray(scale)
    return np.isfinite(residual) & np.isfinite(scale) & (residual <= TOLERANCE * scale)


def _well_conditioned(m: np.ndarray) -> np.ndarray:
    """One flag per matrix of a stack: finite entries and condition number below 1e12.

    cond fails on a non-finite matrix, so it sees only the finite ones.  An
    all-finite stack, the usual case, goes to cond whole: the boolean-mask
    copy raised the peak RSS of the transport runs.
    """
    ok = np.all(np.isfinite(m), axis=(-2, -1))
    if np.all(ok):
        return np.linalg.cond(m) < 1e12
    ok[ok] = np.linalg.cond(m[ok]) < 1e12
    return ok


def _step_grid(s: float, t: float, dt: float) -> tuple[int, float]:
    """ceil(|t - s| / dt) equal steps from s to t, so dt bounds every step taken."""
    # NaN fails this test too: it compares false with everything
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    span = t - s
    if span == 0:
        return 0, 0.0
    steps = max(1, int(np.ceil(abs(span) / dt)))
    return steps, span / steps


def rk4_step(apply_h, y: np.ndarray, time, step: float) -> np.ndarray:
    """One classical RK4 step of i hbar dy/dt = apply_h(time, y) from time to time + step.

    time may be an array of N step starts; apply_h then returns a stack of N
    right-hand sides, and the step returns N results, one per start.
    """

    def rhs(at, state: np.ndarray) -> np.ndarray:
        return (-1j / HBAR) * apply_h(at, state)

    k1 = rhs(time, y)
    k2 = rhs(time + step / 2, y + step / 2 * k1)
    k3 = rhs(time + step / 2, y + step / 2 * k2)
    k4 = rhs(time + step, y + step * k3)
    return y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_linear(apply_h, y0: np.ndarray, s: float, t: float, dt: float) -> np.ndarray:
    """Classical RK4 for i hbar dy/dt = apply_h(t, y) from y(s) = y0 to y(t).

    Takes ceil(|t - s| / dt) equal steps, so dt bounds every step taken; time
    may run forward or backward.  Returns a new array.
    """
    steps, step = _step_grid(s, t, dt)
    y = np.array(y0, copy=True)
    for n in range(steps):
        y = rk4_step(apply_h, y, s + n * step, step)
    return y
