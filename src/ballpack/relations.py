"""Curvature identities on flags of edge-scribed regular polytopes.

Three layers live here.  The bottom is bookkeeping: curvatures of Lorentzian
barycenters of faces (plain means of vertex vectors) and the ladder
L(0..d+1) of inverse squared half edge-lengths attached to the prefixes of a
Schlafli symbol.  The middle is the curvature null-identity, which the Gram
matrix of a flag's barycenters (a "corner" matrix, with an explicit
tridiagonal inverse) turns into the quadratic flag relation.  The top is the
family of small linear/quadratic consequences (consecutive-element
relations, the two-root next-polyhedron solver, the walk around a face),
each one law evaluated at the Schlafli symbol, that let clusters grow by
curvature arithmetic alone, plus the ring certificates for integral and
phi-integral packings.

Every function is exact on exact input and float on float input; the two
never mix silently.  :func:`exact_flag_residuals` evaluates the flag
relation on every flag of an exact projection at once, on integers: the
vertex curvatures over one denominator, each face summed once.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import linalg
from .exactnum import (
    RING_Z,
    RING_Z_PHI,
    approx,
    compare,
    exact_row,
    exact_sqrt,
    is_float_data,
    is_ring_integer,
    one_field,
    ratio,
    scalar_sign,
    sqrt_if_expressible,
)
from .lorentz import Ball, curvature, lorentz_product
from .packings import BallArrangement
from .polytopes import (
    Solid,
    cos2,
    half_edge_length_squared,
    solid_from_schlafli,
)

INTEGRAL = "integral"
PHI_INTEGRAL = "phi-integral"
NOT_CERTIFIED = "not-certified"


# -- Lorentzian barycenters ------------------------------------------------------


def lorentzian_curvature(arrangement: BallArrangement, face=None):
    """Curvature of the Lorentzian barycenter: curvature is linear, so this
    is the mean of the vertex curvatures over ``face`` (all if None)."""
    idx = sorted(face) if face is not None else range(len(arrangement))
    return ratio(sum(arrangement[i].curvature for i in idx), len(idx))


def flag_curvatures(arrangement: BallArrangement, flag) -> tuple:
    """Curvatures (rank 0..d+1) along a face chain, ending with the whole solid."""
    ks = [lorentzian_curvature(arrangement, f) for f in flag]
    ks.append(lorentzian_curvature(arrangement))
    return tuple(ks)


# -- the L ladder ----------------------------------------------------------------


@lru_cache(maxsize=None)
def L_value(s: Solid, i: int):
    """Inverse squared half edge-length of the rank-i face (-1 at 0, 0 at 1)."""
    top = s.dimension + 1
    if not 0 <= i <= top:
        raise ValueError(f"rank {i} out of range 0..{top}")
    if i == 0:
        return -1
    if i == 1:
        return 0
    sub = solid_from_schlafli(s.schlafli[: i - 1])
    return ratio(1, half_edge_length_squared(sub))


def gram_curvature_identity(vectors):
    """Residual of kappa . Gram(vectors)^-1 . kappa for a Lorentzian basis.

    Accepts balls or raw vectors (flag barycenters are not unit vectors).
    Identically zero whenever the vectors form a basis; raises on singular
    Gram matrices.
    """
    vs = [v.v if isinstance(v, Ball) else tuple(v) for v in vectors]
    ks = [curvature(v) for v in vs]
    g = [[lorentz_product(u, w) for w in vs] for u in vs]
    sol = linalg.solve(tuple(tuple(r) for r in g), tuple(ks))
    return sum(k * x for k, x in zip(ks, sol))


# -- flag relations --------------------------------------------------------------


def verify_flag_relation(s: Solid, kappas):
    """Residual of the quadratic flag relation for curvatures of rank 0..d+1."""
    ks = tuple(kappas)
    top = s.dimension + 1
    if len(ks) != top + 1:
        raise ValueError(f"need {top + 1} curvatures for {s.name}, got {len(ks)}")
    lv = [L_value(s, i) for i in range(top + 1)]
    if is_float_data(ks):
        lv = [approx(x) for x in lv]
    rhs = 0
    for i in range(top):
        diff = ks[i] - ks[i + 1]
        rhs = rhs + ratio(diff * diff, lv[i + 1] - lv[i])
    return ks[-1] * ks[-1] - lv[-1] * rhs


def exact_flag_residuals(s: Solid, chains, kappas):
    """Each flag's :func:`verify_flag_relation` residual, up to one positive
    factor, as integers (x, y) for x + y sqrt m; None when a curvature or the
    L ladder is a float.  Values in two fields are refused.

    ``kappas`` are the exact vertex curvatures of a projection of ``s`` and
    ``chains`` its flags, each a chain of faces of rank 0..d given as sets of
    vertex indices.  The residual k_top^2 - sum_i c_i (k_i - k_{i+1})^2,
    with c_i = L_top / (L_{i+1} - L_i), is homogeneous of degree 2 in the
    curvatures and linear in (1, c_0, ...), so each comes as the integers of
    its ``exactnum.exact_row`` without the factor num/den.  Face sums are put
    over the lcm N of the face sizes: K_f = (N/|f|) sum_{v in f} k_v.  Each
    face is summed once, and each term of a pair of incident faces is taken
    once, however many flags pass through it.  A pair is (0, 0) exactly when
    the flag's residual is zero.
    """
    top = s.dimension + 1
    lv = [L_value(s, i) for i in range(top + 1)]
    if is_float_data([*lv, *kappas]):
        return None
    coeffs = [1, *(-ratio(lv[-1], lv[i + 1] - lv[i]) for i in range(top))]
    E, F, _, _, f1 = exact_row(coeffs)
    A, B, _, _, f2 = exact_row(kappas)
    m = one_field(f1, f2)
    faces = {f for chain in chains for f in chain}
    n = math.lcm(len(kappas), *map(len, faces))

    def total(f):
        return sum(A[v] for v in f) * (n // len(f)), sum(B[v] for v in f) * (n // len(f))

    K = {f: total(f) for f in faces}
    K[None] = total(range(len(kappas)))  # the whole solid

    def term(j, k1, k2):
        """coefficient j times (k1 - k2)^2, as integers of Z[sqrt m]."""
        a, b = k1[0] - k2[0], k1[1] - k2[1]
        u, v = a * a + m * b * b, 2 * a * b
        return E[j] * u + m * F[j] * v, E[j] * v + F[j] * u

    terms = {}
    whole = term(0, K[None], (0, 0))
    out = []
    for chain in chains:
        x, y = whole
        for i, pair in enumerate(zip(chain, (*chain[1:], None))):
            t = terms.get(pair)
            if t is None:
                t = terms[pair] = term(i + 1, K[pair[0]], K[pair[1]])
            x, y = x + t[0], y + t[1]
        out.append((x, y))
    return out


def soddy_gosset_residual(kappas):
    """(sum k)^2 - d sum k^2 for d+2 pairwise tangent d-ball curvatures.

    For exact unit vectors with pairwise products exactly -1, the residual
    is -2d<N, N> = 0, with N = e_{d+1} + e_{d+2} the null vector that reads
    curvatures.  So on the tuples that ``classify_pair`` proved tangent, among
    balls whose norms ``PackingDocument.balls()`` proved to be 1, the exact
    ``verify --checks soddy`` cannot fail; only float residuals can.
    """
    ks = tuple(kappas)
    d = len(ks) - 2
    total = sum(ks)
    return total * total - d * sum(k * k for k in ks)


def relative_residual(residual, reference) -> float:
    """|residual| / max(1, |reference|): comparison scale for grown curvatures."""
    return abs(approx(residual)) / max(1.0, abs(approx(reference)))


# -- exact dihedral trigonometry ---------------------------------------------------


def _cos2(n: int, exact: bool):
    c2 = cos2(n)
    if not exact:
        return approx(c2)
    if isinstance(c2, float):
        raise ValueError(f"no exact cos^2(pi/{n}); pass float curvatures")
    return c2


def _sin2(n: int, exact: bool):
    return 1 - _cos2(n, exact)


def consecutive(kind: str, p: int, q: int, *, vertex=None, edge=None, face=None, polyhedron=None):
    """Partner curvature across the flag mirror that moves only ``kind``.

    vertex:     needs vertex, edge            -> the other vertex of the edge
    edge:       needs vertex, edge, face      -> the other edge through v in f
    face:       needs edge, face, polyhedron  -> the other face through e
    polyhedron: needs face, polyhedron        -> the solid inverted in b_f
    """
    if kind == "vertex":
        _need(vertex=vertex, edge=edge)
        return 2 * edge - vertex
    exact = not is_float_data([x for x in (vertex, edge, face, polyhedron) if x is not None])
    if kind == "edge":
        _need(vertex=vertex, edge=edge, face=face)
        return 2 * (_cos2(p, exact) * vertex + _sin2(p, exact) * face) - edge
    if kind == "face":
        _need(edge=edge, face=face, polyhedron=polyhedron)
        s2p = _sin2(p, exact)
        mean = ratio(_cos2(q, exact), s2p) * edge + ratio(_sin2(q, exact) - _cos2(p, exact), s2p) * polyhedron
        return 2 * mean - face
    if kind == "polyhedron":
        _need(face=face, polyhedron=polyhedron)
        s2p = _sin2(p, exact)
        return 2 * ratio(s2p, s2p - _cos2(q, exact)) * face - polyhedron
    raise ValueError(f"unknown consecutive kind {kind!r}")


def _need(**kwargs):
    missing = [name for name, value in kwargs.items() if value is None]
    if missing:
        raise ValueError(f"missing curvature(s): {', '.join(missing)}")


def face_next(p: int, triple):
    """The curvature after k_next around a p-gon face, from three consecutive
    vertex curvatures: k_prev + (4 cos^2(pi/p) - 1)(k_next - k_mid).

    The coefficient is 0 for a triangle, 1 for a square and phi for a pentagon.
    """
    k_prev, k_mid, k_next = triple
    return k_prev + (4 * _cos2(p, not is_float_data(triple)) - 1) * (k_next - k_mid)


def _discriminant(p: int, triple, exact: bool):
    """e2(triple) + (1 - 4 cos^2(pi/p)) k_mid^2: under the square root of the
    two solids over a p-gon face, up to the factor cos^2(pi/q)."""
    k_prev, k_mid, k_next = triple
    e2 = k_prev * k_mid + k_mid * k_next + k_prev * k_next
    return e2 + (1 - 4 * _cos2(p, exact)) * k_mid * k_mid


def solve_next_polyhedron(p: int, q: int, triple):
    """Both roots (kappa+, kappa-) for the solids sharing the face of a triple.

    The triple is (k_{i-1}, k_i, k_{i+1}) for consecutive tangent balls on a
    p-gon face; one root is the solid at hand, the other its inversion in the
    shared face's dual ball.  A negative discriminant (no real solid) raises.
    """
    k_prev, k_mid, k_next = triple
    exact = not is_float_data(triple)
    c2p = _cos2(p, exact)
    c2q = _cos2(q, exact)
    rad = _any_sqrt(c2q * _discriminant(p, triple, exact), triple)
    base = (1 - 2 * c2p) * k_mid + ratio(k_next + k_prev, 2)
    den = 2 * (1 - c2q - c2p)
    return (ratio(base + rad, den), ratio(base - rad, den))


def _any_sqrt(disc, ks):
    """Square root of a discriminant quadratic in the curvatures ks: float or
    exact; refuses negatives.  (sum |k|)^2 bounds its terms' size."""

    def size():
        s = sum(abs(k) for k in ks)
        return s * s  # inf, where a float's ** 2 raises OverflowError

    s = compare(disc, 0, size)
    if s < 0:
        raise ValueError("negative discriminant: not packing data")
    return exact_sqrt(disc if s > 0 else 0 * disc)  # a double root within rounding


# -- integrality certificates -------------------------------------------------------


def integrality_condition(s: Solid, triple) -> str:
    """Ring certificate for the packing grown from three consecutive curvatures.

    The radicand is the one under the square root of ``solve_next_polyhedron``,
    scaled by 4: 4 cos^2(pi/q) times the discriminant.  All three curvatures
    and its square root in Z certify "integral" (tetrahedron, octahedron,
    cube); in Z[phi], the ring of a symbol holding 5, they certify
    "phi-integral" (icosahedron, dodecahedron).  Anything else -- including a
    negative radicand or an inexpressible root -- is "not-certified".
    """
    if is_float_data(triple):
        raise TypeError("integrality certificates need exact curvatures")
    if s.dimension != 2:
        raise ValueError(f"no integrality certificate for {s.name}")
    p, q = s.schlafli
    ring = RING_Z_PHI if 5 in s.schlafli else RING_Z
    if not all(_in_ring(k, ring) for k in triple):
        return NOT_CERTIFIED
    radicand = 4 * _cos2(q, True) * _discriminant(p, triple, True)
    if scalar_sign(radicand) < 0:
        return NOT_CERTIFIED
    root = _certified_sqrt(radicand, ring)
    if root is None or not _in_ring(root, ring):
        return NOT_CERTIFIED
    return INTEGRAL if ring == RING_Z else PHI_INTEGRAL


def _certified_sqrt(radicand, ring):
    if ring == RING_Z_PHI:
        return sqrt_if_expressible(radicand, 5)
    try:
        return exact_sqrt(radicand)
    except ValueError:
        return None


def _in_ring(x, ring) -> bool:
    try:
        return is_ring_integer(x, ring)
    except ValueError:
        return False
