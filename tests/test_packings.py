from fractions import Fraction

import numpy as np
import pytest

from closed_forms import graph_distance
from curvature_tables import CENTERED_CURVATURES, MOBIUS_SPECTRA, multisets_match
from frame_oracle import mobius_equivalent
from ballpack.exactnum import approx
from ballpack.lorentz import (
    ball_from_geometry,
    classify_pair,
    inversion_map,
    lorentz_product,
)
from ballpack.packings import (
    BallArrangement,
    centered_projection,
    dual,
    face_to_north,
    gram,
    grouped_spectra,
    is_packing,
    mobius_spectra,
    project,
)
from ballpack.polytopes import (
    CUBE,
    OCTAHEDRON,
    PLATONIC,
    TETRAHEDRON,
    Polytope,
    Solid,
    face_barycenter,
    regular_edge_scribed,
    solid_from_name,
)


def test_project_tetrahedron_all_tangent():
    a = project(regular_edge_scribed(TETRAHEDRON))
    assert len(a) == 4
    g = gram(a)
    for i in range(4):
        for j in range(4):
            assert g[i][j] == (1 if i == j else -1)
    assert is_packing(a)


@pytest.mark.parametrize("solid", PLATONIC, ids=lambda s: s.name)
def test_projection_tangency_graph_matches_edges(solid):
    p = regular_edge_scribed(solid)
    a = project(p)
    assert is_packing(a)
    g = gram(a)
    edges = set(p.edges)
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            prod = g[i][j]
            if frozenset((i, j)) in edges:
                assert prod == -1
            else:
                assert prod < -1


def test_two_equal_balls_not_packing():
    b = ball_from_geometry(2, center=(0, 0), curvature=1)
    assert not is_packing(BallArrangement((b, b)))


def test_pyramid_fixture_not_packing():
    # a square pyramid with one apex edge loose from the sphere: its
    # projection has overlapping disks, so it is no packing
    apex = (0.0, 0.0, 1.9)
    base = [(1.1, 1.1, 0.25), (1.1, -1.1, 0.25), (-1.1, -1.1, 0.25), (-1.1, 1.1, 0.25)]
    verts = tuple([apex] + base)
    lattice = {
        0: tuple(frozenset([i]) for i in range(5)),
        1: tuple(
            [frozenset([0, i]) for i in range(1, 5)]
            + [frozenset([1, 2]), frozenset([2, 3]), frozenset([3, 4]), frozenset([4, 1])]
        ),
        2: tuple(
            [frozenset([1, 2, 3, 4])]
            + [frozenset([0, 1, 2]), frozenset([0, 2, 3]), frozenset([0, 3, 4]), frozenset([0, 4, 1])]
        ),
    }
    pyramid = Polytope(verts, lattice)
    arr = project(pyramid)
    assert not is_packing(arr)
    kinds = {
        classify_pair(arr[i], arr[j])
        for i in range(5)
        for j in range(i + 1, 5)
    }
    assert "overlapping" in kinds


@pytest.mark.parametrize(
    "case", sorted(CENTERED_CURVATURES), ids=lambda c: f"{c[0]}-rank{c[1]}"
)
def test_centered_projections_match_table(case):
    name, rank = case
    from ballpack.polytopes import solid_from_name

    a = centered_projection(solid_from_name(name), rank)
    got = [approx(k) for k in a.curvatures()]
    assert multisets_match(got, CENTERED_CURVATURES[case], tol=1e-9)


def test_centered_projection_rank_error():
    with pytest.raises(ValueError):
        centered_projection(TETRAHEDRON, 3)


def test_dual_orthogonality_all_platonic():
    for s in PLATONIC:
        p = regular_edge_scribed(s)
        a = project(p)
        da = dual(a)
        facets = p.faces_by_rank[p.dimension]
        assert len(da) == len(facets)
        for fi, f in enumerate(facets):
            for v in f:
                assert lorentz_product(a[v].v, da[fi].v) == 0


def test_dual_requires_polytope():
    b = ball_from_geometry(2, center=(0, 0), curvature=1)
    with pytest.raises(ValueError):
        dual(BallArrangement((b,)))


def test_dual_of_cube_is_octahedron_projection():
    a = project(regular_edge_scribed(CUBE))
    da = dual(a)
    assert len(da) == 6
    octa = project(regular_edge_scribed(OCTAHEDRON))
    assert sorted(approx(k) for k in da.curvatures()) == pytest.approx(
        sorted(approx(k) for k in octa.curvatures())
    )


def test_gram_hypercube_law():
    for n, exact in ((3, True), (4, False), (5, False)):
        p = regular_edge_scribed(Solid("cube", n))
        a = project(p)
        g = gram(a)
        for i in range(len(a)):
            for j in range(len(a)):
                want = 1 - 2 * graph_distance(p, i, j)
                if exact:
                    assert g[i][j] == want
                else:
                    assert approx(g[i][j]) == pytest.approx(want, abs=1e-9)


def test_mobius_equivalence():
    a = project(regular_edge_scribed(TETRAHEDRON))
    m = inversion_map(ball_from_geometry(2, center=(Fraction(5, 2), 0), curvature=1))
    assert mobius_equivalent(a, a.transformed(m))
    octa = project(regular_edge_scribed(OCTAHEDRON))
    assert not mobius_equivalent(a, octa)
    # two centered projections of the same solid agree (float tolerance)
    c1 = centered_projection(CUBE, 0)
    c2 = centered_projection(CUBE, 2)
    assert mobius_equivalent(c1, c2)


def test_mobius_equivalent_rejects_non_packing():
    b1 = ball_from_geometry(2, center=(0, 0), curvature=1)
    b2 = ball_from_geometry(2, center=(1, 0), curvature=1)
    b3 = ball_from_geometry(2, center=(3, 0), curvature=1)
    b4 = ball_from_geometry(2, center=(6, 0), curvature=1)
    arr = BallArrangement((b1, b2, b3, b4))
    with pytest.raises(ValueError):
        mobius_equivalent(arr, arr)


@pytest.mark.parametrize("name", sorted(MOBIUS_SPECTRA))
def test_mobius_spectra_table(name):
    from ballpack.polytopes import solid_from_name

    s = solid_from_name(name)
    got = mobius_spectra(s)
    assert multisets_match(got, MOBIUS_SPECTRA[name], tol=1e-8)
    # trace equals vertex count
    assert sum(got) == pytest.approx(len(regular_edge_scribed(s).vertices), abs=1e-8)


def test_grouped_spectra_cube():
    groups = grouped_spectra(CUBE)
    assert [(round(v, 6), m) for v, m in groups] == [(-16.0, 1), (0.0, 4), (8.0, 3)]


CENTERED_SOLIDS = (
    "tetrahedron", "octahedron", "cube", "icosahedron", "dodecahedron",
    "triangle", "square", "5-gon", "6-gon", "7-gon",
    "simplex-4", "simplex-5", "cube-4", "cube-5", "orthoplex-4", "orthoplex-5",
)


def _first_barycenter(p: Polytope, k: int) -> np.ndarray:
    return np.array([approx(x) for x in face_barycenter(p, p.faces_by_rank[k][0])])


def _centerings() -> list:
    """(solid, rank) for every rank whose first face has a nonzero barycenter."""
    out = []
    for name in CENTERED_SOLIDS:
        p = regular_edge_scribed(solid_from_name(name))
        out += [(name, k) for k in sorted(p.faces_by_rank) if _first_barycenter(p, k).any()]
    return out


@pytest.mark.parametrize("name,k", _centerings())
def test_centering_is_a_rotation_putting_the_first_face_north(name, k):
    # simplex-4 at rank 0 has its vertex at the south pole: the half-turn
    p = regular_edge_scribed(solid_from_name(name))
    q = face_to_north(p, k)
    assert q.faces_by_rank == p.faces_by_rank
    U = np.array([[approx(x) for x in u] for u in p.vertices])
    W = np.array(q.vertices, dtype=float)
    before, after = U @ U.T, W @ W.T
    assert (np.abs(after - before) <= 1e-12 * np.maximum(1, np.abs(before))).all()
    *rest, north = _first_barycenter(q, k)
    assert north > 0 and max(map(abs, rest), default=0) <= 1e-12
    basis = []  # d + 1 independent vertices, taken greedily
    for i in range(len(U)):
        if np.linalg.matrix_rank(U[basis + [i]]) == len(basis) + 1:
            basis.append(i)
    assert len(basis) == U.shape[1]
    assert np.sign(np.linalg.det(W[basis])) == np.sign(np.linalg.det(U[basis]))


def test_centering_a_vertex_at_the_south_pole_is_the_half_turn_about_the_first_axis():
    p = regular_edge_scribed(solid_from_name("simplex-4"))
    first, *rest = p.vertices
    south = Polytope(((0.0, 0.0, 0.0, first[-1]), *rest), p.faces_by_rank, family=p.family)
    q = face_to_north(south, 0)
    assert q.vertices == tuple((-u[0], *u[1:-1], -u[-1]) for u in south.vertices)
