"""Small exact linear-algebra kernel over Python scalars.

Everything here works on numpy ``object`` arrays holding ``Fraction`` (or
``int``) entries, so ranks and reductions come out exact.  The same
routines run fine on float arrays; exactness is a property of the inputs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def frac_matrix(rows) -> np.ndarray:
    """Build an object-dtype matrix with every entry coerced to Fraction."""
    data = [[Fraction(x) for x in row] for row in rows]
    out = np.empty((len(data), len(data[0])), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def identity(n: int) -> np.ndarray:
    out = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def rref(mat: np.ndarray):
    """Reduced row echelon form.  Returns (rref matrix, pivot column list)."""
    m = mat.copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i, c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[[pivot, r]] = m[[r, pivot]]
        m[r] = m[r] * (Fraction(1) / Fraction(m[r, c]))
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat: np.ndarray) -> int:
    _, pivots = rref(mat)
    return len(pivots)


def is_zero(mat: np.ndarray) -> bool:
    return all(x == 0 for x in np.ravel(mat))
