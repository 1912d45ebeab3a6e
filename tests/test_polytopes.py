import math
import re
from fractions import Fraction

import pytest

from closed_forms import graph_distance, half_edge_length, half_edge_length_pq
from ballpack.exactnum import QuadScalar, approx, is_float_data, phi
from ballpack.polytopes import (
    COS2,
    CUBE,
    DODECAHEDRON,
    ICOSAHEDRON,
    OCTAHEDRON,
    PLATONIC,
    TETRAHEDRON,
    Solid,
    cos2,
    dual_solid,
    face_barycenter,
    flags,
    half_edge_length_squared,
    polar_dual,
    regular_edge_scribed,
    solid_from_name,
    solid_from_schlafli,
)

PHI = phi()


def _norm2(v):
    return sum(x * x for x in v)


def test_half_edge_lengths_table():
    assert half_edge_length(TETRAHEDRON) * half_edge_length(TETRAHEDRON) == 2
    assert half_edge_length(OCTAHEDRON) == 1
    assert half_edge_length(CUBE) * half_edge_length(CUBE) == Fraction(1, 2)
    assert half_edge_length(ICOSAHEDRON) == PHI - 1
    assert half_edge_length(DODECAHEDRON) == (PHI - 1) ** 2
    assert half_edge_length(Solid("cube", 5)) == Fraction(1, 2)
    assert half_edge_length(Solid("cross", 6)) == 1
    # {p} polygon: tan(pi/p)
    assert approx(half_edge_length(Solid("ngon", 3))) == pytest.approx(math.tan(math.pi / 3))
    assert half_edge_length(Solid("ngon", 4)) == 1
    assert approx(half_edge_length(Solid("ngon", 7))) == pytest.approx(math.tan(math.pi / 7))
    # constants-only entries
    assert approx(half_edge_length(Solid("cell24", 4))) == pytest.approx(3 ** -0.5)
    assert half_edge_length(Solid("cell600", 4)) == pytest.approx(
        5 ** -0.25 * float(PHI) ** -1.5
    )
    assert half_edge_length(Solid("cell120", 4)) == pytest.approx(
        3 ** -0.5 * float(PHI) ** -3
    )


def test_half_edge_length_pq_consistent():
    for s, (p, q) in [
        (TETRAHEDRON, (3, 3)),
        (OCTAHEDRON, (3, 4)),
        (CUBE, (4, 3)),
        (ICOSAHEDRON, (3, 5)),
        (DODECAHEDRON, (5, 3)),
    ]:
        assert half_edge_length_pq(p, q) == pytest.approx(approx(half_edge_length(s)), abs=1e-12)


def test_schlafli_symbols():
    assert TETRAHEDRON.schlafli == (3, 3)
    assert OCTAHEDRON.schlafli == (3, 4)
    assert CUBE.schlafli == (4, 3)
    assert ICOSAHEDRON.schlafli == (3, 5)
    assert DODECAHEDRON.schlafli == (5, 3)
    assert Solid("cube", 5).schlafli == (4, 3, 3, 3)
    assert Solid("cross", 4).schlafli == (3, 3, 4)
    assert Solid("simplex", 5).schlafli == (3, 3, 3, 3)
    assert Solid("cell24", 4).schlafli == (3, 4, 3)


# The squared half edge-lengths of the per-kind table that the Schlafli
# symbol formula replaced, kept as the oracle for it.
OLD_HALF_EDGE_LENGTH_SQUARED = {
    **{Solid("simplex", n): Fraction(n + 1, n - 1) for n in range(2, 8)},
    **{Solid("cube", n): Fraction(1, n - 1) for n in range(2, 8)},
    **{Solid("cross", n): 1 for n in range(2, 8)},
    Solid("ngon", 3): 3,
    Solid("ngon", 4): 1,
    Solid("ngon", 5): QuadScalar(5, -2, 5),
    Solid("ngon", 6): Fraction(1, 3),
    Solid("ngon", 7): 0.2319141134796165,
    Solid("ngon", 8): 0.1715728752538099,
    Solid("ngon", 9): 0.1324743314317942,
    ICOSAHEDRON: QuadScalar(Fraction(3, 2), Fraction(-1, 2), 5),
    DODECAHEDRON: QuadScalar(Fraction(7, 2), Fraction(-3, 2), 5),
    Solid("cell24", 4): Fraction(1, 3),
    Solid("cell600", 4): QuadScalar(1, Fraction(-2, 5), 5),
    Solid("cell120", 4): QuadScalar(3, Fraction(-4, 3), 5),
}


def _solid_id(s):
    return f"{s.kind}-{s.n}" if s.n == 2 else s.name


@pytest.mark.parametrize("solid", OLD_HALF_EDGE_LENGTH_SQUARED, ids=_solid_id)
def test_half_edge_length_squared_matches_the_old_table(solid):
    want = OLD_HALF_EDGE_LENGTH_SQUARED[solid]
    got = half_edge_length_squared(solid)
    if isinstance(want, float):
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-15, abs=0)
    else:
        assert not isinstance(got, float) and got == want


def test_cos2_is_exact_where_it_is_quadratic():
    for p in range(3, 13):
        c2 = cos2(p)
        assert isinstance(c2, float) == (p not in COS2)
        assert approx(c2) == pytest.approx(math.cos(math.pi / p) ** 2, rel=1e-15)
    assert cos2(5) == (PHI * PHI) / 4


def test_solid_from_schlafli_inverts_schlafli():
    for s in [*OLD_HALF_EDGE_LENGTH_SQUARED, Solid("cube", 9), Solid("ngon", 12)]:
        back = solid_from_schlafli(s.schlafli)
        assert back == s or (back.kind == "ngon" and s.n == 2)
    with pytest.raises(ValueError):
        solid_from_schlafli((4, 4))
    with pytest.raises(ValueError):
        Solid("rhombicuboctahedron")


# every solid that regular_edge_scribed realizes
REALIZABLE = tuple(
    dict.fromkeys(
        [
            *PLATONIC,
            *(Solid(k, n) for k in ("simplex", "cube", "cross") for n in range(2, 7)),
            *(Solid("ngon", p) for p in range(3, 10)),
        ]
    )
)


@pytest.mark.parametrize("solid", REALIZABLE, ids=_solid_id)
def test_edge_scribed_platonic(solid):
    p = regular_edge_scribed(solid)
    want_v2 = 1 + half_edge_length_squared(solid)
    exact = not any(is_float_data(v) for v in p.vertices)
    if solid in PLATONIC:
        assert exact  # all five Platonic solids are hosted exactly
    if exact:
        same = lambda x, want: x == want
    else:
        same = lambda x, want: approx(x) == pytest.approx(approx(want), rel=1e-12, abs=1e-12)
    for v in p.vertices:
        assert same(_norm2(v), want_v2)
    for e in p.edges:
        assert same(_norm2(face_barycenter(p, e)), 1)
    ell = half_edge_length(solid)
    assert same(ell * ell, want_v2 - 1)


def test_edge_scribed_counts():
    counts = {
        TETRAHEDRON: (4, 6, 4),
        OCTAHEDRON: (6, 12, 8),
        CUBE: (8, 12, 6),
        ICOSAHEDRON: (12, 30, 20),
        DODECAHEDRON: (20, 30, 12),
    }
    for s, (nv, ne, nf) in counts.items():
        p = regular_edge_scribed(s)
        assert len(p.faces(0)) == nv
        assert len(p.faces(1)) == ne
        assert len(p.faces(2)) == nf


def test_face_sizes():
    ico = regular_edge_scribed(ICOSAHEDRON)
    assert all(len(f) == 3 for f in ico.faces(2))
    dod = regular_edge_scribed(DODECAHEDRON)
    assert all(len(f) == 5 for f in dod.faces(2))
    cube = regular_edge_scribed(CUBE)
    assert all(len(f) == 4 for f in cube.faces(2))


def test_flag_counts_match_symmetry_orders():
    for s, order in [
        (TETRAHEDRON, 24),
        (OCTAHEDRON, 48),
        (CUBE, 48),
        (ICOSAHEDRON, 120),
        (DODECAHEDRON, 120),
    ]:
        assert len(flags(regular_edge_scribed(s))) == order


def test_lattice_closure():
    for s in PLATONIC:
        p = regular_edge_scribed(s)
        for k in range(p.dimension):
            for f in p.faces(k):
                assert any(f < g for g in p.faces(k + 1)), (s, k, f)


def test_faces_rank_errors():
    p = regular_edge_scribed(TETRAHEDRON)
    with pytest.raises(ValueError):
        p.faces(3)
    with pytest.raises(ValueError):
        p.faces(-1)


def test_face_barycenter_edge_mean():
    p = regular_edge_scribed(CUBE)
    e = p.edges[0]
    u, v = (p.vertices[i] for i in sorted(e))
    assert face_barycenter(p, e) == tuple((a + b) / 2 for a, b in zip(u, v))


def test_graph_distances():
    cube = regular_edge_scribed(CUBE)
    # antipodal vertices differ in all three sign bits
    far = {
        frozenset((u, v))
        for u in range(8)
        for v in range(8)
        if u != v and all(x == -y for x, y in zip(cube.vertices[u], cube.vertices[v]))
    }
    for pair in far:
        u, v = tuple(pair)
        assert graph_distance(cube, u, v) == 3
    for e in cube.edges:
        u, v = tuple(e)
        assert graph_distance(cube, u, v) == 1
    cube4 = regular_edge_scribed(Solid("cube", 4))
    v0 = cube4.vertices[0]
    anti = next(
        i for i, v in enumerate(cube4.vertices) if all(x == -y for x, y in zip(v, v0))
    )
    assert graph_distance(cube4, 0, anti) == 4


def test_simplex_general_dimension_float():
    for n in (4, 5):
        s = Solid("simplex", n)
        p = regular_edge_scribed(s)
        ell2 = float(n + 1) / (n - 1)
        for v in p.vertices:
            assert _norm2(v) == pytest.approx(1 + ell2, abs=1e-12)
        for e in p.edges:
            assert _norm2(face_barycenter(p, e)) == pytest.approx(1, abs=1e-12)
        assert len(p.faces(n - 1)) == n + 1


def test_cross_polytope_general_dimension():
    p = regular_edge_scribed(Solid("cross", 4))
    assert len(p.vertices) == 8
    for v in p.vertices:
        assert _norm2(v) == 2
    for e in p.edges:
        assert _norm2(face_barycenter(p, e)) == 1
    assert len(p.faces(3)) == 16


def test_polar_dual_octahedron_is_cube():
    octa = regular_edge_scribed(OCTAHEDRON)
    dual = polar_dual(octa)
    assert dual.family == CUBE
    assert len(dual.vertices) == 8
    # same 12 tangency points: each octa edge midpoint must be a dual edge midpoint
    mids = {face_barycenter(octa, e) for e in octa.edges}
    dual_mids = {face_barycenter(dual, e) for e in dual.edges}
    assert mids == dual_mids
    for v in dual.vertices:
        assert _norm2(v) == Fraction(3, 2)


def test_polar_dual_involution():
    for s in (TETRAHEDRON, OCTAHEDRON, CUBE):
        p = regular_edge_scribed(s)
        pp = polar_dual(polar_dual(p))
        assert set(pp.vertices) == set(p.vertices)
        assert pp.faces_by_rank[1] != ()


def test_polar_dual_icosahedron():
    ico = regular_edge_scribed(ICOSAHEDRON)
    dual = polar_dual(ico)
    assert dual.family == DODECAHEDRON
    assert len(dual.vertices) == 20
    assert len(dual.faces(2)) == 12
    # lattice reversal: dual faces of rank 0 correspond to icosa faces of rank 2
    assert all(len(f) == 5 for f in dual.faces(2))


def test_dual_solid_pairs_every_family():
    assert dual_solid(TETRAHEDRON) == TETRAHEDRON
    assert dual_solid(OCTAHEDRON) == CUBE and dual_solid(CUBE) == OCTAHEDRON
    assert dual_solid(ICOSAHEDRON) == DODECAHEDRON
    assert dual_solid(Solid("ngon", 5)) == Solid("ngon", 5)
    assert dual_solid(Solid("cell24", 4)) == Solid("cell24", 4)
    assert dual_solid(Solid("cell600", 4)) == Solid("cell120", 4)
    assert dual_solid(Solid("cell120", 4)) == Solid("cell600", 4)


def test_polar_dual_reverses_incidence():
    p = regular_edge_scribed(TETRAHEDRON)
    d = p.dimension
    facets = p.faces_by_rank[d]
    dual = polar_dual(p)
    # vertex i of dual <-> facet i of p; dual facet j <-> vertex j of p
    for j, g in enumerate(dual.faces(d)):
        for i in g:
            assert j in facets[i]


def test_solid_from_name():
    assert solid_from_name("tetrahedron") == TETRAHEDRON
    assert solid_from_name("OCTA") == OCTAHEDRON
    assert solid_from_name("simplex-5") == Solid("simplex", 5)
    assert solid_from_name("cube-4") == Solid("cube", 4)
    assert solid_from_name("ngon-7") == Solid("ngon", 7)
    assert solid_from_name("7-gon") == Solid("ngon", 7)
    with pytest.raises(ValueError):
        solid_from_name("rhombicuboctahedron")


@pytest.mark.parametrize("name", ["simplex-x", "ngon-x", "5.5-gon", "cube-", "-gon", "orthoplex-4d"])
def test_solid_from_name_refuses_a_malformed_size(name):
    with pytest.raises(ValueError, match=f"^unknown solid '{re.escape(name)}'$"):
        solid_from_name(name)


@pytest.mark.parametrize("solid", REALIZABLE, ids=_solid_id)
def test_solid_from_name_reads_every_solid_name(solid):
    back = solid_from_name(solid.name)
    if back != solid:  # "square" names both cube-2 and orthoplex-2, realized alike
        p, q = regular_edge_scribed(back), regular_edge_scribed(solid)
        assert (p.vertices, p.faces_by_rank) == (q.vertices, q.faces_by_rank)


def test_constants_only_not_realizable():
    with pytest.raises(ValueError):
        regular_edge_scribed(Solid("cell600", 4))


def test_ngon_exact_realizations():
    for p_sides in (3, 4, 6):
        poly = regular_edge_scribed(Solid("ngon", p_sides))
        for e in poly.edges:
            assert _norm2(face_barycenter(poly, e)) == 1
    hept = regular_edge_scribed(Solid("ngon", 7))
    for e in hept.edges:
        assert _norm2(face_barycenter(hept, e)) == pytest.approx(1, abs=1e-12)
