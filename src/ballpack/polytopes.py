"""Regular polytopes: Schlafli data, edge-scribed coordinates, face lattices.

A solid's metric constants come from its Schlafli symbol {p1, ..., pk}
alone: its dimension is k, and its half edge-length l (every edge tangent
to the unit sphere of E^{d+1}, every vertex at norm sqrt(1 + l^2)) is

    l^2 = D(p1..pk) / (D(p2..pk) - D(p1..pk)),

where D is the determinant of the Coxeter group's Gram matrix, 1 on the
diagonal and -cos(pi/p_i) beside it, so D_k = D_{k-1} - cos^2(pi/p_k) D_{k-2}
(the radius formulas of Coxeter, *Regular Polytopes*).  It is exact whenever
every cos^2(pi/p_i) is, which :data:`COS2` lists.  Canonical coordinates are
fixed per family so downstream fixtures are reproducible; where a single
quadratic field hosts them they are exact, otherwise floats.

Face lattices are generated combinatorially per family (subsets for
simplices, coordinate masks for cubes, axis/sign sets for cross-polytopes)
or, for the exceptional polyhedra, by selecting supporting-plane vertex sets
along the dual solid's directions.  Those are decided on integer rows: each
vertex's :func:`exactnum.exact_row` is taken once and put over a common
denominator, so every squared distance and dot product is an integer pair
X + Y sqrt m whose sign :func:`exactnum.quad_sign` reads.  A polar dual
takes each facet's vertex from the facet's barycenter (:func:`polar_dual`),
on the same rows: integer rows for exact vertices, and for float vertices
the rows (v, 0) of :func:`exactnum.float_row`, whose signs ``quad_sign``
reads through ``compare``.  Exact vertices in two quadratic fields are
refused (:func:`exactnum.one_field`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from typing import Optional

from .exactnum import (
    QuadScalar,
    exact_row,
    float_row,
    is_float_data,
    one_field,
    phi,
    quad_sign,
    ratio,
    row_vector,
    scaled_row,
    sqrt_int,
    sqrt_rational,
)
from .lorentz import product_scale

PHI = phi()
INV_PHI = PHI - 1  # 1/phi
INV_PHI2 = INV_PHI * INV_PHI
ZERO, ONE = QuadScalar(0), QuadScalar(1)
SQRT2 = sqrt_int(2)
SQRT3 = sqrt_int(3)

# cos^2(pi/p), exactly, for the p where it is quadratic
COS2 = {
    3: Fraction(1, 4),
    4: Fraction(1, 2),
    5: QuadScalar(Fraction(3, 8), Fraction(1, 8), 5),  # phi^2 / 4
    6: Fraction(3, 4),
}

# the Schlafli symbols of the solids outside the three infinite families
_EXCEPTIONAL = {
    "icosahedron": (3, 5),
    "dodecahedron": (5, 3),
    "cell24": (3, 4, 3),
    "cell600": (3, 3, 5),
    "cell120": (5, 3, 3),
}


def cos2(p: int):
    """cos^2(pi/p): exact for p in COS2, a float for any other p."""
    if p in COS2:
        return COS2[p]
    c = math.cos(math.pi / p)
    return c * c


@dataclass(frozen=True)
class Solid:
    """A regular-polytope family member: kind plus ambient dimension/size."""

    kind: str  # simplex | cube | cross | icosahedron | dodecahedron | ngon | cell24 | cell600 | cell120
    n: int = 3  # ambient dimension for families; number of sides for ngon

    def __post_init__(self):
        if self.kind in ("simplex", "cube", "cross") and self.n < 2:
            raise ValueError("polytope families need ambient dimension >= 2")
        if self.kind == "ngon" and self.n < 3:
            raise ValueError("a polygon needs at least 3 sides")
        if self.kind not in ("simplex", "cube", "cross", "ngon", *_EXCEPTIONAL):
            raise ValueError(f"unknown solid kind {self.kind!r}")

    @property
    def dimension(self) -> int:
        """d: the dimension of the balls the solid projects to."""
        return len(self.schlafli)

    @property
    def schlafli(self) -> tuple:
        k, n = self.kind, self.n
        if k == "ngon":
            return (n,)
        if k == "simplex":
            return (3,) * (n - 1)
        if k == "cube":
            return (4,) + (3,) * (n - 2)
        if k == "cross":
            return (3,) * (n - 2) + (4,)
        return _EXCEPTIONAL[k]

    @property
    def name(self) -> str:
        k, n = self.kind, self.n
        if k == "simplex":
            return {2: "triangle", 3: "tetrahedron"}.get(n, f"simplex-{n}")
        if k == "cube":
            return {2: "square", 3: "cube"}.get(n, f"cube-{n}")
        if k == "cross":
            return {2: "square", 3: "octahedron"}.get(n, f"orthoplex-{n}")
        if k == "ngon":
            return f"{n}-gon"
        return {
            "icosahedron": "icosahedron",
            "dodecahedron": "dodecahedron",
            "cell24": "24-cell",
            "cell600": "600-cell",
            "cell120": "120-cell",
        }[k]

    def __str__(self):
        return self.name


TETRAHEDRON = Solid("simplex", 3)
OCTAHEDRON = Solid("cross", 3)
CUBE = Solid("cube", 3)
ICOSAHEDRON = Solid("icosahedron", 3)
DODECAHEDRON = Solid("dodecahedron", 3)
PLATONIC = (TETRAHEDRON, OCTAHEDRON, CUBE, ICOSAHEDRON, DODECAHEDRON)

_NAME_TABLE = {
    "tetrahedron": TETRAHEDRON,
    "tetra": TETRAHEDRON,
    "octahedron": OCTAHEDRON,
    "octa": OCTAHEDRON,
    "cube": CUBE,
    "icosahedron": ICOSAHEDRON,
    "icosa": ICOSAHEDRON,
    "dodecahedron": DODECAHEDRON,
    "dodeca": DODECAHEDRON,
    "triangle": Solid("simplex", 2),
    "square": Solid("cube", 2),
    "24-cell": Solid("cell24", 4),
    "600-cell": Solid("cell600", 4),
    "120-cell": Solid("cell120", 4),
}


def solid_from_name(name: str) -> Solid:
    """Parse names like "tetrahedron", "simplex-5", "cube-4", "ngon-7", "7-gon"."""
    key = name.strip().lower()
    if key in _NAME_TABLE:
        return _NAME_TABLE[key]
    if key.endswith("-gon"):
        return Solid("ngon", _named_size(name, key[: -len("-gon")]))
    for prefix, kind in (
        ("simplex-", "simplex"),
        ("cube-", "cube"),
        ("orthoplex-", "cross"),
        ("cross-", "cross"),
        ("ngon-", "ngon"),
    ):
        if key.startswith(prefix):
            return Solid(kind, _named_size(name, key[len(prefix):]))
    raise ValueError(f"unknown solid {name!r}")


def _named_size(name: str, text: str) -> int:
    """The size that a solid's name spells, or the unknown-solid error."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"unknown solid {name!r}") from None


# -- half edge-lengths ---------------------------------------------------------


def _coxeter_det(symbol):
    """D(p1..pk), by D_k = D_{k-1} - cos^2(pi/p_k) D_{k-2} from D_{-1} = D_0 = 1."""
    before, det = 1, 1
    for p in symbol:
        before, det = det, det - cos2(p) * before
    return det


def _half_edge_length_squared(symbol):
    """l^2 = D(p1..pk) / (D(p2..pk) - D(p1..pk)) for the symbol {p1..pk}."""
    whole = _coxeter_det(symbol)
    return ratio(whole, _coxeter_det(symbol[1:]) - whole)


def half_edge_length_squared(s: Solid):
    """Squared half edge-length; exact even where the coordinates are floats."""
    return _half_edge_length_squared(s.schlafli)


def solid_from_schlafli(symbol) -> Solid:
    """The regular family member carrying the given Schlafli symbol."""
    sym = tuple(int(x) for x in symbol)
    if not sym:
        raise ValueError("empty Schlafli symbol")
    if len(sym) == 1:
        return Solid("ngon", sym[0])
    for kind in ("simplex", "cube", "cross", *_EXCEPTIONAL):
        s = Solid(kind, len(sym) + 1)
        if s.schlafli == sym:
            return s
    raise ValueError(f"no regular solid with symbol {sym}")


# -- polytopes -----------------------------------------------------------------


@dataclass(frozen=True)
class Polytope:
    """Vertex coordinates plus an explicit face lattice (ranks 0..d)."""

    vertices: tuple
    faces_by_rank: dict
    family: Optional[Solid] = None

    @property
    def ambient_dimension(self) -> int:
        return len(self.vertices[0])

    @property
    def dimension(self) -> int:
        """d: rank of the facets (= ball dimension after projection)."""
        return self.ambient_dimension - 1

    def faces(self, k: int):
        if k not in self.faces_by_rank:
            raise ValueError(f"rank {k} out of range 0..{self.dimension}")
        return self.faces_by_rank[k]

    @property
    def edges(self):
        return self.faces_by_rank[1]

    def adjacency(self) -> dict:
        adj: dict = {i: set() for i in range(len(self.vertices))}
        for e in self.faces_by_rank[1]:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        return adj


def face_barycenter(p: Polytope, f) -> tuple:
    """Coordinate mean of a face's vertices (a frozenset of vertex indices)."""
    idx = sorted(f)
    n = len(idx)
    cols = zip(*(p.vertices[i] for i in idx))
    return tuple(ratio(sum(c), n) for c in cols)


def face_cycle(p: Polytope, face) -> tuple:
    """Vertices of a 2-face in cyclic adjacency order.

    Deterministic: starts at the smallest vertex index and steps first to its
    smaller in-face neighbour.
    """
    idx = sorted(face)
    edges = {e for e in p.faces_by_rank[1] if e <= face}
    if len(edges) != len(idx):
        raise ValueError("face is not a polygon in this lattice")
    start = idx[0]
    nbrs = sorted(v for v in idx if frozenset((start, v)) in edges)
    if len(nbrs) != 2:
        raise ValueError("face vertices are not 2-regular")
    cycle = [start, nbrs[0]]
    while len(cycle) < len(idx):
        here, prev = cycle[-1], cycle[-2]
        step = [v for v in idx if v != prev and frozenset((here, v)) in edges]
        if len(step) != 1:
            raise ValueError("face vertices are not 2-regular")
        cycle.append(step[0])
    return tuple(cycle)


def flags(p: Polytope):
    """All flags (f0 < f1 < ... < fd) as tuples of faces."""
    d = p.dimension
    out = [(f,) for f in p.faces_by_rank[0]]
    for k in range(1, d + 1):
        nxt = []
        for chain in out:
            top = chain[-1]
            for f in p.faces_by_rank[k]:
                if top < f:
                    nxt.append(chain + (f,))
        out = nxt
    return out


def _sorted_faces(sets) -> tuple:
    return tuple(sorted(set(sets), key=lambda f: tuple(sorted(f))))


def _simplex_lattice(nverts: int, d: int) -> dict:
    return {
        k: _sorted_faces(frozenset(c) for c in combinations(range(nverts), k + 1))
        for k in range(d + 1)
    }


def _cube_lattice(n: int) -> dict:
    # vertices indexed by sign patterns in {0,1}^n, lexicographic
    verts = list(product((0, 1), repeat=n))
    index = {v: i for i, v in enumerate(verts)}
    lattice: dict = {}
    for k in range(n):
        fs = []
        for free in combinations(range(n), k):
            fixed = [i for i in range(n) if i not in free]
            for vals in product((0, 1), repeat=len(fixed)):
                members = []
                for bits in product((0, 1), repeat=k):
                    coord = [0] * n
                    for ax, b in zip(free, bits):
                        coord[ax] = b
                    for ax, b in zip(fixed, vals):
                        coord[ax] = b
                    members.append(index[tuple(coord)])
                fs.append(frozenset(members))
        lattice[k] = _sorted_faces(fs)
    return lattice


def _cross_lattice(n: int) -> dict:
    # vertices 2i (= +e_i) and 2i+1 (= -e_i)
    lattice: dict = {}
    for k in range(n):
        fs = []
        for axes in combinations(range(n), k + 1):
            for signs in product((0, 1), repeat=k + 1):
                fs.append(frozenset(2 * a + s for a, s in zip(axes, signs)))
        lattice[k] = _sorted_faces(fs)
    return lattice


def _integer_coords(verts) -> tuple:
    """(rows, m, D): each vertex as a pair (a, b) of int lists, the vertex
    being (a + b sqrt m) / D over one common positive denominator D.  When
    a coordinate is a float, each vertex is its :func:`exactnum.float_row`
    pair (v, 0), with m = 0 and D = 1.0.  Vertices in two fields are refused.

    Each vertex's :func:`exact_row` is taken once; D drops out of every
    comparison below, which compares values of equal scale only.
    """
    if any(is_float_data(v) for v in verts):
        return [float_row(v)[:2] for v in verts], 0, 1.0
    parts = [exact_row(v) for v in verts]
    lcm = math.lcm(*(den for _, _, _, den, _ in parts))
    rows = []
    for A, B, num, den, _ in parts:
        k = num * (lcm // den)
        rows.append(([x * k for x in A], [x * k for x in B]))
    return rows, one_field(*(r[4] for r in parts)), lcm


def _quad_dot(u, v, m: int) -> tuple:
    """D^2 <u, v> as the integer pair (X, Y) of X + Y sqrt m, for two rows of
    :func:`_integer_coords`."""
    (ua, ub), (va, vb) = u, v
    return (
        sum(map(mul, ua, va)) + m * sum(map(mul, ub, vb)),
        sum(map(mul, ua, vb)) + sum(map(mul, ub, va)),
    )


def _extreme_keys(values: dict, m: int, sign: int) -> list:
    """The keys whose integer pair X + Y sqrt m is the largest (sign 1) or the
    smallest (sign -1) of ``values``."""
    best = None
    for x, y in values.values():
        if best is None or quad_sign(x - best[0], y - best[1], m) == sign:
            best = (x, y)
    return [k for k, v in values.items() if v == best]  # X, Y determine the value


def _min_distance_edges(verts) -> tuple:
    rows, m, _ = _integer_coords(verts)
    d2 = {}
    for (i, (ua, ub)), (j, (va, vb)) in combinations(enumerate(rows), 2):
        diff = ([x - y for x, y in zip(ua, va)], [x - y for x, y in zip(ub, vb)])
        d2[(i, j)] = _quad_dot(diff, diff, m)
    return _sorted_faces(frozenset(ij) for ij in _extreme_keys(d2, m, -1))


def _supported_faces(verts, directions) -> tuple:
    # face selected by direction w: the vertices maximizing <v, w>
    rows, m, _ = _integer_coords(tuple(verts) + tuple(directions))
    n = len(verts)
    fs = []
    for w in rows[n:]:
        dots = {i: _quad_dot(v, w, m) for i, v in enumerate(rows[:n])}
        fs.append(frozenset(_extreme_keys(dots, m, 1)))
    return _sorted_faces(fs)


def _icosahedron_vertices():
    # cyclic shifts of (0, +-1/phi, +-1); vertex norm sqrt(1 + 1/phi^2)
    base = []
    for y in (INV_PHI, -INV_PHI):
        for z in (ONE, -ONE):
            trip = (ZERO, y, z)
            for r in range(3):
                base.append(tuple(trip[(i - r) % 3] for i in range(3)))
    return tuple(base)


def _dodecahedron_vertices():
    # (+-1,+-1,+-1)/phi together with cyclic shifts of (0, +-1/phi^2, +-1)
    signed = (INV_PHI, -INV_PHI)
    out = [(x, y, z) for x in signed for y in signed for z in signed]
    for y in (ONE, -ONE):
        for z in (INV_PHI2, -INV_PHI2):
            # note the chirality: this orbit, not its mirror, is polar to the
            # icosahedron orbit above
            trip = (ZERO, y, z)
            for r in range(3):
                out.append(tuple(trip[(i - r) % 3] for i in range(3)))
    return tuple(out)


def _simplex_vertices_float(n: int) -> tuple:
    # n-simplex in E^n: unit directions with pairwise dot -1/n, scaled to
    # vertex norm sqrt(2n/(n-1)).
    import numpy as np

    rows = np.eye(n + 1) - 1.0 / (n + 1)
    _, _, vt = np.linalg.svd(rows)
    basis = vt[:n].T  # orthonormal basis of the sum-zero hyperplane
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    coords = unit @ basis
    scale = math.sqrt(2 * n / (n - 1))
    return tuple(tuple(float(x) for x in row) for row in coords * scale)


def _ngon_vertices(p: int) -> tuple:
    if p == 3:
        return ((2, 0), (-1, SQRT3), (-1, -SQRT3))
    if p == 4:
        return ((SQRT2, QuadScalar(0)), (QuadScalar(0), SQRT2),
                (-SQRT2, QuadScalar(0)), (QuadScalar(0), -SQRT2))
    if p == 6:
        a = ratio(SQRT3, 3)
        return ((2 * a, 0), (a, 1), (-a, 1), (-2 * a, 0), (-a, -1), (a, -1))
    r = 1.0 / math.cos(math.pi / p)
    return tuple(
        (r * math.cos(2 * math.pi * k / p), r * math.sin(2 * math.pi * k / p))
        for k in range(p)
    )


def regular_edge_scribed(s: Solid) -> Polytope:
    """The canonical edge-scribed realization with its face lattice."""
    k, n = s.kind, s.n
    if k in ("cell24", "cell600", "cell120"):
        raise ValueError(f"{s.name} is provided for constants only, not realized")
    if len(s.schlafli) == 1:
        verts = _ngon_vertices(s.schlafli[0])
        m = len(verts)
        lattice = {
            0: _sorted_faces(frozenset([i]) for i in range(m)),
            1: _sorted_faces(frozenset([i, (i + 1) % m]) for i in range(m)),
        }
        return Polytope(verts, lattice, family=s)
    if k == "simplex":
        if n == 3:
            verts = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
        else:
            verts = _simplex_vertices_float(n)
        return Polytope(verts, _simplex_lattice(n + 1, n - 1), family=s)
    if k == "cube":
        h = sqrt_rational(Fraction(1, n - 1))
        raw = list(product((0, 1), repeat=n))
        verts = tuple(tuple(h if b else -h for b in bits) for bits in raw)
        return Polytope(verts, _cube_lattice(n), family=s)
    if k == "cross":
        verts = []
        for i in range(n):
            plus = [QuadScalar(0)] * n
            minus = [QuadScalar(0)] * n
            plus[i], minus[i] = SQRT2, -SQRT2
            verts.append(tuple(plus))
            verts.append(tuple(minus))
        return Polytope(tuple(verts), _cross_lattice(n), family=s)
    if k == "icosahedron":
        verts = _icosahedron_vertices()
        lattice = {
            0: _sorted_faces(frozenset([i]) for i in range(12)),
            1: _min_distance_edges(verts),
            2: _supported_faces(verts, _dodecahedron_vertices()),
        }
        return Polytope(verts, lattice, family=s)
    if k == "dodecahedron":
        verts = _dodecahedron_vertices()
        lattice = {
            0: _sorted_faces(frozenset([i]) for i in range(20)),
            1: _min_distance_edges(verts),
            2: _supported_faces(verts, _icosahedron_vertices()),
        }
        return Polytope(verts, lattice, family=s)
    raise ValueError(f"no coordinates for {s.name}")  # pragma: no cover


_DUAL_KIND = {
    "simplex": "simplex",
    "cube": "cross",
    "cross": "cube",
    "icosahedron": "dodecahedron",
    "dodecahedron": "icosahedron",
    "ngon": "ngon",
    "cell24": "cell24",
    "cell600": "cell120",
    "cell120": "cell600",
}


def dual_solid(s: Solid) -> Solid:
    """The regular family member polar to s, in the same ambient dimension."""
    return Solid(_DUAL_KIND[s.kind], s.n)


def polar_dual(p: Polytope) -> Polytope:
    """The polar polytope: one vertex per facet f, at v_f with <u, v_f> = 1.

    v_f = c / <u, c> for the facet's barycenter c and its first vertex u,
    checked to give <u, v_f> = 1 on every vertex u of the facet.  That holds
    when the facet is perpendicular to its barycenter, as for every regular
    polytope centered at the origin; any other facet is refused.  The
    vertices are taken on rows (:func:`_row_polar_vertex`).
    """
    d = p.dimension
    facets = p.faces_by_rank[d]
    coords = _integer_coords(p.vertices)
    dual_verts = [_row_polar_vertex(coords, sorted(f)) for f in facets]
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


_NO_POLAR_VERTEX = "facet {} has no polar vertex: <u, c> = 0 at its barycenter c"
_NOT_PERPENDICULAR = (
    "facet {} is not perpendicular to its barycenter: its polar vertex is not c / <u, c>"
)


def _row_polar_vertex(coords, idx) -> tuple:
    """c / <u, c> on the rows of :func:`_integer_coords`.  With the facet's
    vertices (a + b sqrt m)/D summing to S, it is S D / <u, S>, and each
    vertex u' of the facet must have <u', S> = <u, S>: exactly, or for
    floats within ``compare``'s window."""
    rows, m, D = coords
    S = tuple([sum(col) for col in zip(*(rows[i][k] for i in idx))] for k in (0, 1))
    X, Y = _quad_dot(rows[idx[0]], S, m)
    if quad_sign(X, Y, m, lambda: product_scale(rows[idx[0]][0], S[0])) == 0:
        raise ValueError(_NO_POLAR_VERTEX.format(idx))
    for i in idx:
        x, y = _quad_dot(rows[i], S, m)
        if quad_sign(x - X, y - Y, m, lambda: product_scale(rows[i][0], S[0])) != 0:
            raise ValueError(_NOT_PERPENDICULAR.format(idx))
    if not Y:  # S D / X
        VA, VB, den = S[0], S[1], X
    else:  # S D / (X + Y sqrt m) = S D (X - Y sqrt m) / (X^2 - m Y^2)
        VA = [a * X - m * b * Y for a, b in zip(*S)]
        VB = [b * X - a * Y for a, b in zip(*S)]
        den = X * X - m * Y * Y
    if isinstance(D, float):
        return tuple(a * D / den for a in VA)
    return row_vector(*scaled_row(VA, VB, D, den, m))
