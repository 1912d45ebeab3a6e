"""Frozen reflection-generator matrices shared by the unit and acceptance tests.

Every entry was transcribed by hand and is pinned exactly; the tests compare
the library's constructions against these tables entry by entry, so any
change in the underlying algebra shows up as a literal mismatch.  The
canonical keys below compare balls and matrices as sets of exact values.
"""

from fractions import Fraction

from ballpack.exactnum import scalar_parts
from ballpack.polytopes import (
    CUBE,
    DODECAHEDRON,
    ICOSAHEDRON,
    OCTAHEDRON,
    PHI,
    SQRT2,
    TETRAHEDRON,
)

HALF = Fraction(1, 2)
R2 = SQRT2

# The five reflection generators of the normalized triangular frame.
# c stands for 2cos(pi/q), so c = 1, sqrt2, phi for q = 3, 4, 5.
MAT_S = ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
MAT_S_STAR = ((1, 0, 0, 0), (0, -1, -2, 2), (0, -2, -1, 2), (0, -2, -2, 3))
MAT_V = ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
MAT_E = (
    (1, 0, 0, 0),
    (0, HALF, 1, -HALF),
    (0, 1, -1, 1),
    (0, HALF, -1, Fraction(3, 2)),
)


def mat_f(c):
    c2 = c * c
    return (
        (-1, 0, 2 * c, -2 * c),
        (0, 1, 0, 0),
        (2 * c, 0, 1 - 2 * c2, 2 * c2),
        (2 * c, 0, -2 * c2, 1 + 2 * c2),
    )


COS_DOUBLE = {3: 1, 4: SQRT2, 5: PHI}
TRIANGULAR = {3: TETRAHEDRON, 4: OCTAHEDRON, 5: ICOSAHEDRON}
DUAL_SOLID = {4: CUBE, 5: DODECAHEDRON}

# Inversion generators of the three integral polyhedral families, frozen
# together with the conjugation recipe that derives each from the previous.
TETRA_FAMILY = (
    MAT_S,
    ((-1, 0, 4, -4), (0, 1, 0, 0), (4, 0, -7, 8), (4, 0, -8, 9)),
    ((-1, 2, 0, -2), (2, -1, 0, 2), (0, 0, 1, 0), (2, -2, 0, 3)),
    ((-1, -2, 0, -2), (-2, -1, 0, -2), (0, 0, 1, 0), (2, 2, 0, 3)),
)
OCTA_FAMILY = (
    MAT_S,
    ((-1, 0, 4 * R2, -4 * R2), (0, 1, 0, 0), (4 * R2, 0, -15, 16), (4 * R2, 0, -16, 17)),
    ((-1, 2 * R2, 0, -2 * R2), (2 * R2, -3, 0, 4), (0, 0, 1, 0), (2 * R2, -4, 0, 5)),
    ((-1, -2 * R2, 0, -2 * R2), (-2 * R2, -3, 0, -4), (0, 0, 1, 0), (2 * R2, 4, 0, 5)),
    (
        (-17, 6 * R2, 12 * R2, -18 * R2),
        (6 * R2, -3, -8, 12),
        (12 * R2, -8, -15, 24),
        (18 * R2, -12, -24, 37),
    ),
    (
        (-17, -6 * R2, 12 * R2, -18 * R2),
        (-6 * R2, -3, 8, -12),
        (12 * R2, 8, -15, 24),
        (18 * R2, 12, -24, 37),
    ),
    ((-17, 0, 0, -12 * R2), (0, 1, 0, 0), (0, 0, 1, 0), (12 * R2, 0, 0, 17)),
    (
        (-49, 0, 20 * R2, -40 * R2),
        (0, 1, 0, 0),
        (20 * R2, 0, -15, 32),
        (40 * R2, 0, -32, 65),
    ),
)
CUBE_FAMILY = (
    MAT_S_STAR,
    ((1, 0, 0, 0), (0, -1, 2, -2), (0, 2, -1, 2), (0, 2, -2, 3)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1)),
    (
        (-15, 0, 12 * R2, -16 * R2),
        (0, 1, 0, 0),
        (12 * R2, 0, -17, 24),
        (16 * R2, 0, -24, 33),
    ),
    (
        (-15, 4 * R2, 4 * R2, -12 * R2),
        (4 * R2, -1, -2, 6),
        (4 * R2, -2, -1, 6),
        (12 * R2, -6, -6, 19),
    ),
    (
        (-15, -4 * R2, 4 * R2, -12 * R2),
        (-4 * R2, -1, 2, -6),
        (4 * R2, 2, -1, 6),
        (12 * R2, 6, -6, 19),
    ),
)


def scalar_key(x):
    """Hashable, orderable canonical form of one coordinate.

    Floats are rounded to 1e-7 (with -0.0 normalized), an order only: float
    equality is ``lorentz.same_vector``'s.  Exact values become their
    ``exactnum.scalar_parts``.
    """
    if isinstance(x, float):
        return round(x, 7) + 0.0
    return scalar_parts(x)


def canonical_ball_key(b) -> tuple:
    """Comparison key of a ball: the canonical coordinate tuple."""
    return tuple(scalar_key(x) for x in b.v)


def mat_equal(m, rows) -> bool:
    """Entrywise exact equality of a Mobius map's matrix against a table."""
    got = m.mat
    if len(got) != len(rows):
        return False
    return all(g == w for gr, wr in zip(got, rows) for g, w in zip(gr, wr))


def preserves_form(m) -> bool:
    """M^T Q M == Q, exactly."""
    n = m.dimension + 2
    rows = m.mat
    for i in range(n):
        for j in range(i, n):
            s = sum(rows[k][i] * rows[k][j] for k in range(n - 1))
            s -= rows[n - 1][i] * rows[n - 1][j]
            want = 0 if i != j else (-1 if i == n - 1 else 1)
            if s != want:
                return False
    return True


def generator(gens, name: str):
    """The generator of a GeneratorSet that has the given name."""
    return next(g for g in gens if g.name == name)


def is_identity(m) -> bool:
    n = m.dimension + 2
    return all(
        m.mat[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
    )
