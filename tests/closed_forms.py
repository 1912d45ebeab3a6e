"""The paper's per-solid closed forms of the curvature laws.

`ballpack.relations` evaluates one general law at a solid's Schlafli symbol;
these are the same laws as printed for each solid, kept as reference
implementations that the tests compare the general laws against.
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
from ballpack.polytopes import cos2

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
