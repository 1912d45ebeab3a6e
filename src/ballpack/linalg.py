"""Tiny matrix/vector helpers over arbitrary exact scalars.

Matrices are tuples of row tuples; vectors are flat tuples.  Entries may be
ints, Fractions, QuadScalars, or floats -- anything with ring operators.
One Gauss-Jordan elimination (with division) backs solve, in both numeric
modes: exact entries take any nonzero pivot, floats the largest, with zero
tests scaled by the entries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .exactnum import compare

Vector = tuple
Matrix = tuple


class SingularMatrix(ValueError):
    """The matrix given to :func:`solve` is singular."""


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _exactify(x):
    # int/int division yields float; promote ints so elimination stays exact
    from fractions import Fraction

    return Fraction(x) if isinstance(x, int) else x


def _pick_pivot(rows, col: int, start: int, nrows: int, size):
    # exact scalars: any nonzero pivot works; floats: take the largest so
    # elimination residues of earlier columns never get promoted to pivots
    cand = [r for r in range(start, nrows) if compare(rows[r][col], 0, size) != 0]
    if not cand:
        return None
    if any(isinstance(rows[r][col], float) for r in cand):
        return max(cand, key=lambda r: abs(rows[r][col]))
    return cand[0]


def _eliminate(rows: list, ncols: int, a: Matrix) -> int:
    """Gauss-Jordan elimination of the first ``ncols`` columns, in place.

    Pivot rows are scaled to 1 and moved to the top in column order; the
    return value is the number of pivots found.  Float zero tests are scaled
    by the largest |entry| of the original matrix ``a``, computed once.
    """
    size = lru_cache(maxsize=None)(lambda: max((abs(x) for r in a for x in r), default=0))
    rk = 0
    for col in range(ncols):
        if rk == len(rows):
            break
        piv = _pick_pivot(rows, col, rk, len(rows), size)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        pv = rows[rk][col]
        rows[rk] = [x / pv for x in rows[rk]]
        for r in range(len(rows)):
            if r != rk and compare(rows[r][col], 0, size) != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rk])]
        rk += 1
    return rk


def solve(a: Matrix, b: Vector) -> Vector:
    """Solve a x = b by Gaussian elimination; raises on singular a."""
    n = len(a)
    rows = [[_exactify(x) for x in r] + [_exactify(bv)] for r, bv in zip(a, b)]
    if _eliminate(rows, n, a) < n:
        raise SingularMatrix("singular matrix")
    return tuple(rows[i][n] for i in range(n))

