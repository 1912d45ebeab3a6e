"""The paper's per-solid closed forms of the curvature laws.

`ballpack.relations` evaluates one general law at a solid's Schlafli symbol;
these are the same laws as printed for each solid, kept as reference
implementations that the tests compare the general laws against.  The
paper's statements that the program does not run sit here too: half
edge-lengths, graph distances on a polytope, Lorentzian barycenters and
their corner matrices, the face curvature from three vertices, and the
antipodal and vertex-neighbor recurrences.
"""

import math

from ballpack.exactnum import (
    RING_Z,
    RING_Z_PHI,
    approx,
    exact_sqrt,
    is_float_data,
    is_ring_integer,
    phi,
    ratio,
    scalar_sign,
    sqrt_if_expressible,
)
from ballpack.polytopes import cos2, half_edge_length_squared

PHI = phi()


def _phi(values):
    return approx(PHI) if is_float_data(values) else PHI


def _sqrt(disc):
    if scalar_sign(disc) < 0:
        raise ValueError("negative discriminant: not packing data")
    return exact_sqrt(disc)


# -- the two solids over a face --------------------------------------------------


def octahedral_next(triple):
    """k1+k2+k3 +- sqrt(2(k1k2+k1k3+k2k3)): the two octahedra over a triangle."""
    k1, k2, k3 = triple
    rad = _sqrt(2 * (k1 * k2 + k1 * k3 + k2 * k3))
    s = k1 + k2 + k3
    return (s + rad, s - rad)


def cubical_next(triple):
    """Two cubes over a square face, from three consecutive vertex curvatures."""
    k_prev, k_mid, k_next = triple
    rad = _sqrt(-k_mid * k_mid + k_mid * k_next + k_mid * k_prev + k_next * k_prev)
    return (k_prev + k_next + rad, k_prev + k_next - rad)


def icosahedral_next(triple):
    """phi^2(k1+k2+k3) +- phi^3 sqrt(k1k2+k1k3+k2k3) for a shared triangle."""
    k1, k2, k3 = triple
    phi1 = _phi(triple)
    rad = _sqrt(k1 * k2 + k1 * k3 + k2 * k3)
    s = phi1 * phi1 * (k1 + k2 + k3)
    return (s + phi1 ** 3 * rad, s - phi1 ** 3 * rad)


def dodecahedral_next(triple):
    """Two dodecahedra over a pentagon, from three consecutive vertex curvatures."""
    k_prev, k_mid, k_next = triple
    phi1 = _phi(triple)
    rad = _sqrt(-phi1 * k_mid * k_mid + k_mid * k_next + k_mid * k_prev + k_next * k_prev)
    base = -phi1 * k_mid
    return (
        base + phi1 * phi1 * (k_next + k_prev + rad),
        base + phi1 * phi1 * (k_next + k_prev - rad),
    )


def tetrahedral_next(triple):
    """(s +- sqrt(e2))/2: the two tetrahedra over a triangle, from Descartes'
    k4 = s +- 2 sqrt(e2) and the solid's curvature (s + k4)/4."""
    k1, k2, k3 = triple
    rad = _sqrt(k1 * k2 + k1 * k3 + k2 * k3)
    s = k1 + k2 + k3
    return (ratio(s + rad, 2), ratio(s - rad, 2))


NEXT = {
    (3, 3): tetrahedral_next,
    (3, 4): octahedral_next,
    (4, 3): cubical_next,
    (3, 5): icosahedral_next,
    (5, 3): dodecahedral_next,
}


# -- around a face ------------------------------------------------------------------


def square_face_fourth(k_a, k_b, k_c):
    """Fourth curvature around a square face from three in cyclic order."""
    return k_a + k_c - k_b


def pentagon_fourth(k_prev, k_mid, k_next):
    """Next curvature around a pentagon: phi(k_{i+1}-k_i) = k_{i+2}-k_{i-1}."""
    return k_prev + _phi((k_prev, k_mid, k_next)) * (k_next - k_mid)


FACE_NEXT = {4: square_face_fourth, 5: pentagon_fourth}


# -- flag relations -------------------------------------------------------------------


def simplex_flag_residual(kappas):
    """Closed-form flag relation for simplices: prefactor d/(d+2), weights C(i+2,2)."""
    ks = tuple(kappas)
    d = len(ks) - 2
    rhs = 0
    for i in range(d + 1):
        diff = ks[i] - ks[i + 1]
        rhs = rhs + math.comb(i + 2, 2) * diff * diff
    return ks[-1] * ks[-1] - ratio(d, d + 2) * rhs


def cube_flag_residual(kappas):
    """Closed-form flag relation for cubes: all weights 1, prefactor d."""
    ks = tuple(kappas)
    d = len(ks) - 2
    rhs = sum((ks[i] - ks[i + 1]) * (ks[i] - ks[i + 1]) for i in range(d + 1))
    return ks[-1] * ks[-1] - d * rhs


def platonic_flag_relation(p: int, q: int, k_v, k_e, k_f, k_p):
    """Residual of the polyhedral flag relation for Schlafli symbol {p,q}:
    k_p^2 = a(k_v - k_e)^2 + b(k_e - k_f)^2 + c(k_f - k_p)^2 with
    a = cos^2(pi/p)/den, b = sin^2(pi/p)/den, c = sin^2(pi/p)/cos^2(pi/q) and
    den = sin^2(pi/q) - cos^2(pi/p)."""
    c2p, c2q = cos2(p), cos2(q)
    s2p, s2q = 1 - c2p, 1 - c2q
    den = s2q - c2p
    a = ratio(c2p, den)
    b = ratio(s2p, den)
    c = ratio(s2p, c2q)
    rhs = (
        a * (k_v - k_e) * (k_v - k_e)
        + b * (k_e - k_f) * (k_e - k_f)
        + c * (k_f - k_p) * (k_f - k_p)
    )
    return k_p * k_p - rhs


# -- integrality certificates -----------------------------------------------------------


def integrality_radicand(kind: str, triple):
    """(ring, radicand) per solid: e2, 2e2, e2 - k_mid^2, e2 and e2 - phi k_mid^2."""
    k_prev, k_mid, k_next = triple
    e2 = k_prev * k_mid + k_mid * k_next + k_prev * k_next
    return {
        "simplex": lambda: (RING_Z, e2),
        "cross": lambda: (RING_Z, 2 * e2),
        "cube": lambda: (RING_Z, e2 - k_mid * k_mid),
        "icosahedron": lambda: (RING_Z_PHI, e2),
        "dodecahedron": lambda: (RING_Z_PHI, e2 - PHI * k_mid * k_mid),
    }[kind]()


def integrality_condition(kind: str, triple) -> str:
    """"integral", "phi-integral" or "not-certified", from the table above."""
    ring, radicand = integrality_radicand(kind, triple)

    def in_ring(x):
        try:
            return is_ring_integer(x, ring)
        except ValueError:
            return False

    if not all(in_ring(k) for k in triple) or scalar_sign(radicand) < 0:
        return "not-certified"
    if ring == RING_Z_PHI:
        root = sqrt_if_expressible(radicand, 5)
    else:
        try:
            root = exact_sqrt(radicand)
        except ValueError:
            root = None
    if root is None or not in_ring(root):
        return "not-certified"
    return "integral" if ring == RING_Z else "phi-integral"


# -- half edge-lengths and graph distances -------------------------------------------


def half_edge_length(s):
    """Half the edge length: exact where the field of its square hosts it."""
    ell2 = half_edge_length_squared(s)
    try:
        return exact_sqrt(ell2)
    except ValueError:  # the root lies outside the field of ell2
        return math.sqrt(ell2)


def half_edge_length_pq(p: int, q: int) -> float:
    """The polyhedral half edge-length of {p,q}:
    sqrt(sin^2(pi/p) - cos^2(pi/q)) / cos(pi/p)."""
    return math.sqrt(math.sin(math.pi / p) ** 2 - math.cos(math.pi / q) ** 2) / math.cos(math.pi / p)


def graph_distance(p, u: int, v: int) -> int:
    """Edges on a shortest path from vertex u to vertex v of the polytope p."""
    adj = p.adjacency()
    seen, frontier, dist = {u}, [u], 0
    while v not in seen:
        if not frontier:
            raise ValueError("vertices lie in different components")
        dist += 1
        frontier = [x for w in frontier for x in adj[w] if x not in seen]
        seen.update(frontier)
    return dist


# -- barycenters and corner matrices -------------------------------------------------


def lorentzian_barycenter(arrangement, face=None) -> tuple:
    """Mean of the vertex ball vectors over ``face`` (all vertices if None)."""
    idx = sorted(face) if face is not None else range(len(arrangement))
    cols = zip(*(arrangement[i].v for i in idx))
    n = len(idx)
    return tuple(ratio(sum(c), n) for c in cols)


def corner_matrix(entries) -> tuple:
    """The symmetric matrix with (i,j) entry a_max(i,j)."""
    a = tuple(entries)
    n = len(a)
    return tuple(tuple(a[max(i, j)] for j in range(n)) for i in range(n))


def corner_inverse(entries) -> tuple:
    """Tridiagonal inverse of the corner matrix; needs a_i != a_{i+1}, a_n != 0."""
    a = tuple(entries)
    n = len(a)
    if n == 0:
        raise ValueError("empty corner matrix")
    if any(a[i] == a[i + 1] for i in range(n - 1)):
        raise ValueError("corner inverse needs distinct consecutive entries")
    if a[-1] == 0:
        raise ValueError("corner inverse needs a nonzero last entry")
    diffs = [ratio(1, a[i] - a[i + 1]) for i in range(n - 1)]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        total = diffs[i - 1] if i > 0 else 0
        total = total + (diffs[i] if i < n - 1 else ratio(1, a[-1]))
        out[i][i] = total
    for i in range(n - 1):
        out[i][i + 1] = out[i + 1][i] = -diffs[i]
    return tuple(tuple(row) for row in out)


# -- recurrences on one solid -----------------------------------------------------------


def face_from_three(p: int, triple):
    """Face curvature from three consecutive vertex curvatures on a p-gon face:
    (k_prev + k_next) / (4 sin^2(pi/p)) + (1 - 1 / (2 sin^2(pi/p))) k_mid."""
    k_prev, k_mid, k_next = triple
    s2 = 1 - cos2(p)
    if is_float_data(triple):
        s2 = approx(s2)
    elif isinstance(s2, float):
        raise ValueError(f"no exact cos^2(pi/{p}); pass float curvatures")
    quarter = ratio(1, 4 * s2)
    return quarter * (k_next + k_prev) + (1 - 2 * quarter) * k_mid


def antipodal_curvature(k_solid, k_vertex):
    """Curvature at the antipodal vertex: the solid's is the pair's midpoint."""
    return 2 * k_solid - k_vertex


def dodecahedral_from_vertex_neighbors(k_v, neighbors):
    """Dodecahedron curvature from one vertex curvature and its three neighbors'."""
    phi1 = _phi((k_v, *neighbors))
    return ratio(phi1 * phi1 * sum(neighbors) - (1 + 3 * phi1) * k_v, 2)
