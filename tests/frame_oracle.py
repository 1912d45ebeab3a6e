"""The frame layer in exact scalars.

`ballpack.polytopes` decides the icosahedron's and the dodecahedron's face
lattices on integer rows, and takes each polar vertex from its facet's
barycenter.  This module keeps the scalar versions: distances and dot
products in QuadScalar arithmetic, and each polar vertex solved from an
affinely spanning set of its facet's vertices by Gauss-Jordan elimination.
They are the reference that the tests compare the program against.
"""

from itertools import combinations

from ballpack import linalg
from ballpack.exactnum import compare
from ballpack.polytopes import (
    Polytope,
    _dodecahedron_vertices,
    _icosahedron_vertices,
    _sorted_faces,
    dual_solid,
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
            if linalg.rank(linalg.mat(trial)) == len(trial):
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
