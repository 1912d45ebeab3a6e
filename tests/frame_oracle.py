"""The frame and Mobius layers in exact scalars.

`ballpack.polytopes` decides the icosahedron's and the dodecahedron's face
lattices on integer rows, and takes each polar vertex from its facet's
barycenter; `ballpack.lorentz` takes light sources, maps, inversions and
reflections on integer rows.  This module keeps the scalar versions:
distances and dot products in QuadScalar arithmetic, each polar vertex
solved from an affinely spanning set of its facet's vertices by
Gauss-Jordan elimination, a ball as (u, 1)/s with s = sqrt(|u|^2 - 1) for
each light source u and the light source of a ball, a map's image as its
matrix times the vector, and an inversion as I - 2 x xT Q entry by entry,
and a seed's light-like vector y from a second Gram solve per remaining
vertex and a general quadratic.  Two packings are Mobius equivalent when
their Gram matrices agree.  They are the reference that the tests compare
the program against.
"""

from itertools import combinations, product

import numpy as np

from ballpack import apollonian, linalg
from ballpack.exactnum import (
    approx,
    compare,
    exact_sqrt,
    is_float_data,
    one_field,
    ratio,
    scalar_parts,
    scalar_sign,
)
from ballpack.lorentz import Ball, MobiusMap, lorentz_product, product_scale, x_north
from ballpack.packings import BallArrangement, gram, is_packing
from ballpack.polytopes import (
    Polytope,
    _dodecahedron_vertices,
    _icosahedron_vertices,
    _sorted_faces,
    dual_solid,
    face_cycle,
    regular_edge_scribed as _program_edge_scribed,
)


def _min_distance_edges(verts) -> tuple:
    n = len(verts)
    d2 = {}
    for i, j in combinations(range(n), 2):
        diff = [x - y for x, y in zip(verts[i], verts[j])]
        d2[(i, j)] = sum(x * x for x in diff)
    lo = min(d2.values())
    pairs = [ij for ij, v in d2.items() if compare(v, lo, lambda: lo) == 0]
    return _sorted_faces(frozenset(ij) for ij in pairs)


def _supported_faces(verts, directions) -> tuple:
    # face selected by direction w: the vertices maximizing <v, w>
    fs = []
    for w in directions:
        dots = [sum(x * y for x, y in zip(v, w)) for v in verts]
        m = max(dots)
        scale = lambda: max(sum(abs(x * y) for x, y in zip(v, w)) for v in verts)
        fs.append(frozenset(i for i, t in enumerate(dots) if compare(t, m, scale) == 0))
    return _sorted_faces(fs)


def regular_edge_scribed(s) -> Polytope:
    """The program's realization, with the exceptional lattices built by the
    scalar functions above."""
    if s.kind not in ("icosahedron", "dodecahedron"):
        return _program_edge_scribed(s)
    ico, dod = _icosahedron_vertices(), _dodecahedron_vertices()
    verts, directions = (ico, dod) if s.kind == "icosahedron" else (dod, ico)
    lattice = {
        0: _sorted_faces(frozenset([i]) for i in range(len(verts))),
        1: _min_distance_edges(verts),
        2: _supported_faces(verts, directions),
    }
    return Polytope(verts, lattice, family=s)


def _rank(rows) -> int:
    """The rank of exact or float rows, read on their floats."""
    return int(np.linalg.matrix_rank(np.array([[approx(x) for x in r] for r in rows])))


def polar_dual(p: Polytope) -> Polytope:
    """The polar polytope: one vertex per facet f, at v_f with <u, v_f> = 1."""
    d = p.dimension
    n = d + 1
    facets = p.faces_by_rank[d]
    dual_verts = []
    for f in facets:
        idx = sorted(f)
        rows = [p.vertices[i] for i in idx]
        # pick n affinely spanning rows, then solve rows * v = 1
        chosen: list = []
        for r in rows:
            trial = chosen + [r]
            if _rank(trial) == len(trial):
                chosen = trial
            if len(chosen) == n:
                break
        if len(chosen) < n:
            raise ValueError("facet does not span; origin may not be interior")
        v = linalg.solve(linalg.mat(chosen), tuple([1] * n))
        dual_verts.append(tuple(v))
    lattice: dict = {}
    for kk in range(d + 1):
        src = p.faces_by_rank[d - kk]
        fs = [
            frozenset(i for i, f in enumerate(facets) if g <= f)
            for g in src
        ]
        lattice[kk] = _sorted_faces(fs)
    dual_family = None if p.family is None else dual_solid(p.family)
    return Polytope(tuple(dual_verts), lattice, family=dual_family)


# -- the Mobius layer ---------------------------------------------------------------


def ball_from_light_source(u) -> Ball:
    """Ball whose boundary is the horizon of a light source u, |u| > 1."""
    u = tuple(u)
    u2 = sum(x * x for x in u)
    if compare(u2, 1) <= 0:
        raise ValueError("light source must lie strictly outside the unit sphere")
    s = exact_sqrt(u2 - 1)
    v = tuple(ratio(x, s) for x in u) + (ratio(1, s),)
    return Ball(v)


def light_source(b: Ball) -> tuple:
    """Point of E^{d+1} outside the unit sphere whose shadow is the ball b."""
    t = b.v[-1]
    if scalar_sign(t) <= 0:
        raise ValueError("ball vector is past-directed or ideal; no light source")
    return tuple(ratio(x, t) for x in b.v[:-1])


def project(p: Polytope) -> BallArrangement:
    return BallArrangement(tuple(ball_from_light_source(u) for u in p.vertices), p)


def apply_map(m: MobiusMap, b: Ball) -> Ball:
    """The image of an exact ball under an exact map."""
    return Ball(linalg.mat_vec(m.mat, b.v), _checked=True)


def inversion_map(b: Ball) -> MobiusMap:
    """The inversion in b as a Lorentz matrix, I - 2 x xT Q."""
    v = b.v
    n = len(v)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            q = -1 if j == n - 1 else 1
            e = 1 if i == j else 0
            row.append(e - 2 * v[i] * v[j] * q)
        rows.append(tuple(row))
    return MobiusMap(tuple(rows), check=False)


def reflection_swapping(x, t):
    """Lorentz reflection exchanging unit space-like vectors x and t, if sound."""
    n = tuple(a - b for a, b in zip(x, t))
    nn = lorentz_product(n, n)
    if compare(nn, 0, lambda: sum((abs(a) + abs(b)) ** 2 for a, b in zip(x, t))) <= 0:
        return None
    size = len(n)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            q = -1 if j == size - 1 else 1
            e = 1 if i == j else 0
            row.append(e - ratio(2 * n[i] * n[j] * q, nn))
        rows.append(tuple(row))
    return MobiusMap(rows, check=False)


def quadratic_roots(qa, qb, qc) -> list:
    """Real roots of qa t^2 + qb t + qc in a fixed order, for exact input.
    With qa = qb = 0 and qc != 0 there is none: the vertex that gave the
    quadratic lies in the anchors' span and says nothing about t."""
    if scalar_sign(qa) == 0:
        if scalar_sign(qb) == 0:
            return [0] if scalar_sign(qc) == 0 else []
        return [ratio(-qc, qb)]
    disc = qb * qb - 4 * qa * qc
    s = scalar_sign(disc)
    if s < 0:
        raise ValueError("curvature triple is not realizable on this solid")
    if s == 0:
        root = ratio(-qb, 2 * qa)
        return [root, root]
    sign = 1 if scalar_sign(qb) >= 0 else -1
    try:  # a root in another quadratic field than the coefficients' is refused too
        rad = exact_sqrt(disc)
        q = ratio(-(qb + sign * rad), 2)
        far, near = ratio(q, qa), ratio(qc, q)
    except ValueError:
        raise ValueError(
            "the normalizing square root is not expressible in the "
            "hosting field; use float mode for this seed"
        )
    return [near, far] if sign > 0 else [far, near]


def future_null_with_products(vectors, ks):
    """A future light-like y with <y, x_i> = -k_i for the first three
    vectors.  Each further vertex vector u turns the constraints into a
    line y0 + t yn, with yn = u minus its projection on the anchors' span,
    and the light cone into a quadratic in t; the first vertex with a future
    root wins, and the larger root is preferred."""
    anchors = vectors[:3]
    g3 = linalg.mat([[lorentz_product(u, v) for v in anchors] for u in anchors])
    try:
        c0 = linalg.solve(g3, tuple(-k for k in ks))
    except linalg.SingularMatrix:
        raise ValueError("anchor balls do not span a rank-3 subspace")
    y0 = tuple(sum(c * x for c, x in zip(c0, cols)) for cols in zip(*anchors))
    last_error = "curvature triple has no future-pointing realization"
    for u in vectors[3:]:
        cn = linalg.solve(g3, tuple(-lorentz_product(u, v) for v in anchors))
        yn = tuple(
            sum(c * x for c, x in zip(cn, cols)) + ux
            for ux, cols in zip(u, zip(*anchors))
        )
        qa = lorentz_product(yn, yn)
        qb = 2 * lorentz_product(y0, yn)
        qc = lorentz_product(y0, y0)
        try:
            roots = quadratic_roots(qa, qb, qc)
        except ValueError as err:
            last_error = str(err)
            continue
        for t in roots:
            try:
                y = tuple(a + t * b for a, b in zip(y0, yn))
            except ValueError:
                last_error = (
                    "the normalizing square root is not expressible in the "
                    "hosting field; use float mode for this seed"
                )
                break
            if all(scalar_sign(x) == 0 for x in y):
                continue
            if scalar_sign(y[-1]) > 0:
                return y
    raise ValueError(last_error)


def packing_from_curvatures(s, triple) -> tuple:
    """(balls, dual balls) of an exact seed, as the program builds them but
    from the scalar pieces above, with y from every vertex rather than the
    first face's dual ball.  A y off the probe's light ray is sent to it by
    the scalar reflection (the program's boost on it is scalar code too)."""
    triple = tuple(triple)
    one_field(*(scalar_parts(k)[4] for k in triple))  # as the program refuses two fields
    poly = regular_edge_scribed(s)
    balls, duals = project(poly).balls, project(polar_dual(poly)).balls
    anchors = face_cycle(poly, poly.faces(2)[0])[:3]
    order = list(anchors) + [v for v in range(len(balls)) if v not in anchors]
    y = future_null_with_products([balls[v].v for v in order], triple)
    d = poly.dimension
    if scalar_sign(lorentz_product(y, x_north(d))) != 0:
        m = reflection_swapping(y, x_north(d))
    else:
        m = apollonian._map_null_to_north(y, d)
    return tuple(apply_map(m, b) for b in balls), tuple(apply_map(m, b) for b in duals)


def mobius_equivalent(a: BallArrangement, a2: BallArrangement) -> bool:
    """Gram-matrix test under the given orderings (packings of maximal rank)."""
    if len(a.balls) != len(a2.balls) or a.dimension != a2.dimension:
        return False
    if not (is_packing(a) and is_packing(a2)):
        raise ValueError("Gram comparison needs packings")
    if any(is_float_data(b.v) for b in a.balls + a2.balls):
        a, a2 = a.approx(), a2.approx()
    d = a.dimension
    g1, g2 = gram(a), gram(a2)
    if _rank(g1) != d + 2 or _rank(g2) != d + 2:
        raise ValueError("Gram comparison needs maximal rank d+2")
    u, v = [b.v for b in a.balls], [b.v for b in a2.balls]
    size = lambda i, j: max(product_scale(u[i], u[j]), product_scale(v[i], v[j]))  # noqa: E731
    pairs = product(range(len(u)), repeat=2)
    return all(compare(g1[i][j], g2[i][j], lambda: size(i, j)) == 0 for i, j in pairs)
