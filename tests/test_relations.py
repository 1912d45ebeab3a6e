"""Flag curvature relations: barycenters, corner matrices, solvers, certificates."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import closed_forms as cf
from ballpack import linalg, relations as rel
from ballpack.apollonian import platonic_generators
from ballpack.exactnum import QuadScalar, approx, phi, sqrt_int
from ballpack.lorentz import ball_from_geometry, inversion_map
from ballpack.packings import dual, project
from ballpack.polytopes import (
    CUBE,
    DODECAHEDRON,
    ICOSAHEDRON,
    OCTAHEDRON,
    PLATONIC,
    TETRAHEDRON,
    Solid,
    face_cycle,
    flags,
    regular_edge_scribed,
    solid_from_schlafli,
)

PHI = phi()
SQRT5 = sqrt_int(5)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def arrangement(s):
    return project(regular_edge_scribed(s))


def descartes_quadruple():
    """The tetrahedron's frame seed: curvatures (0, 0, 1, 1)."""
    return platonic_generators(TETRAHEDRON).seed


# -- barycenters and the L ladder -----------------------------------------------


def test_barycenter_means():
    a = descartes_quadruple()
    ks = a.curvatures()
    assert sorted(approx(k) for k in ks) == [0.0, 0.0, 1.0, 1.0]
    order = sorted(range(4), key=lambda i: approx(ks[i]))
    assert rel.lorentzian_curvature(a, order[:2]) == 0
    assert rel.lorentzian_curvature(a, order[:3]) == Fraction(1, 3)
    assert rel.lorentzian_curvature(a) == Fraction(1, 2)


def test_barycenter_vector_is_mean():
    a = arrangement(OCTAHEDRON)
    f = a.polytope.faces(2)[0]
    bary = cf.lorentzian_barycenter(a, f)
    idx = sorted(f)
    for pos, coord in enumerate(bary):
        assert coord == Fraction(1, 3) * sum(a[i].v[pos] for i in idx)


@pytest.mark.parametrize("s", PLATONIC, ids=str)
def test_l_ladder_ends(s):
    assert rel.L_value(s, 0) == -1
    assert rel.L_value(s, 1) == 0


def test_l_values_platonic():
    assert rel.L_value(TETRAHEDRON, 2) == Fraction(1, 3)
    assert rel.L_value(TETRAHEDRON, 3) == Fraction(1, 2)
    assert rel.L_value(CUBE, 2) == 1
    assert rel.L_value(CUBE, 3) == 2
    assert rel.L_value(OCTAHEDRON, 2) == Fraction(1, 3)
    assert rel.L_value(OCTAHEDRON, 3) == 1
    assert rel.L_value(ICOSAHEDRON, 2) == Fraction(1, 3)
    assert rel.L_value(ICOSAHEDRON, 3) == PHI * PHI
    assert rel.L_value(DODECAHEDRON, 2) == 1 + Fraction(2, 5) * SQRT5
    assert rel.L_value(DODECAHEDRON, 3) == PHI ** 4


def test_l_values_4_polytopes():
    assert rel.L_value(Solid("cell24", 4), 4) == 3
    assert rel.L_value(Solid("cell600", 4), 4) == 5 + 2 * SQRT5
    assert rel.L_value(Solid("cell120", 4), 4) == 27 + 12 * SQRT5
    assert rel.L_value(Solid("simplex", 4), 4) == Fraction(3, 5)
    assert rel.L_value(Solid("cube", 4), 4) == 3


def test_l_value_rank_range():
    with pytest.raises(ValueError):
        rel.L_value(CUBE, 4)
    with pytest.raises(ValueError):
        rel.L_value(CUBE, -1)


# -- corner matrices -------------------------------------------------------------


def test_corner_matrix_layout():
    assert cf.corner_matrix((1, 0)) == ((1, 0), (0, 0))
    assert cf.corner_matrix((3, 2, 1)) == ((3, 2, 1), (2, 2, 1), (1, 1, 1))


def test_corner_inverse_is_inverse():
    c = cf.corner_matrix((3, 2, 1))
    ci = cf.corner_inverse((3, 2, 1))
    assert linalg.mat_mul(c, ci) == linalg.identity(3)


def test_corner_inverse_preconditions():
    with pytest.raises(ValueError):
        cf.corner_inverse((1, 0))
    with pytest.raises(ValueError):
        cf.corner_inverse((2, 2, 1))


@given(st.lists(rationals, min_size=1, max_size=5), st.data())
def test_corner_quadratic_form(a, data):
    ok = all(a[i] != a[i + 1] for i in range(len(a) - 1)) and a[-1] != 0
    if not ok:
        with pytest.raises(ValueError):
            cf.corner_inverse(a)
        return
    x = data.draw(st.lists(rationals, min_size=len(a), max_size=len(a)))
    ci = cf.corner_inverse(a)
    lhs = sum(
        x[i] * ci[i][j] * x[j] for i in range(len(a)) for j in range(len(a))
    )
    rhs = sum(
        (x[i] - x[i + 1]) ** 2 / (a[i] - a[i + 1]) for i in range(len(a) - 1)
    )
    rhs += x[-1] ** 2 / a[-1]
    assert lhs == rhs


@pytest.mark.parametrize("s", PLATONIC, ids=str)
def test_flag_gram_is_corner_matrix(s):
    a = arrangement(s)
    flag = flags(a.polytope)[0]
    vectors = [cf.lorentzian_barycenter(a, f) for f in flag]
    vectors.append(cf.lorentzian_barycenter(a))
    from ballpack.lorentz import lorentz_product

    gram = [[lorentz_product(u, v) for v in vectors] for u in vectors]
    want = cf.corner_matrix([-rel.L_value(s, i) for i in range(4)])
    for grow, wrow in zip(gram, want):
        for g, w in zip(grow, wrow):
            assert g == w


# -- the curvature null identity --------------------------------------------------


def test_gram_identity_descartes_quadruple():
    a = descartes_quadruple()
    from ballpack.lorentz import lorentz_product

    for i in range(4):
        for j in range(i + 1, 4):
            assert lorentz_product(a[i].v, a[j].v) == -1
    assert rel.gram_curvature_identity(a.balls) == 0


@pytest.mark.parametrize("s", PLATONIC, ids=str)
def test_gram_identity_flag_barycenters(s):
    a = arrangement(s)
    flag = flags(a.polytope)[0]
    vectors = [cf.lorentzian_barycenter(a, f) for f in flag]
    vectors.append(cf.lorentzian_barycenter(a))
    assert rel.gram_curvature_identity(vectors) == 0


def test_gram_identity_random_lorentz_images():
    rng = random.Random(7)
    base = [b.approx() for b in descartes_quadruple().balls]
    for _ in range(20):
        m = inversion_map(
            ball_from_geometry(
                2,
                center=(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                curvature=rng.choice([0.5, 1.5, -0.25, 3.0]),
            )
        ) @ inversion_map(
            ball_from_geometry(
                2,
                center=(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                curvature=rng.choice([0.75, 2.0, 1.25]),
            )
        )
        moved = [linalg.mat_vec(m.mat, b.v) for b in base]
        ks = [v[-1] - v[-2] for v in moved]
        scale = sum(k * k for k in ks)
        assert rel.relative_residual(rel.gram_curvature_identity(moved), scale) < 1e-9


def test_gram_identity_singular():
    a = descartes_quadruple()
    with pytest.raises(ValueError):
        rel.gram_curvature_identity([a[0], a[0], a[1], a[2]])


# -- flag relations ---------------------------------------------------------------


def test_flag_relation_descartes_quadruple():
    ks = (0, 0, Fraction(1, 3), Fraction(1, 2))
    assert rel.verify_flag_relation(TETRAHEDRON, ks) == 0


@pytest.mark.parametrize("s", PLATONIC, ids=str)
def test_flag_relation_all_flags_exact(s):
    a = arrangement(s)
    for flag in flags(a.polytope):
        ks = rel.flag_curvatures(a, flag)
        assert rel.verify_flag_relation(s, ks) == 0


@pytest.mark.parametrize(
    "s", [Solid("simplex", 4), Solid("cube", 4), Solid("cross", 4)], ids=str
)
def test_flag_relation_4_polytopes_float(s):
    a = arrangement(s)
    for flag in flags(a.polytope)[:24]:
        ks = [approx(k) for k in rel.flag_curvatures(a, flag)]
        assert abs(rel.verify_flag_relation(s, ks)) < 1e-9


def test_flag_relation_wrong_length():
    with pytest.raises(ValueError):
        rel.verify_flag_relation(CUBE, (0, 0, 1))


@given(st.tuples(rationals, rationals, rationals, rationals))
def test_simplex_closed_form_matches_general(ks):
    assert cf.simplex_flag_residual(ks) == rel.verify_flag_relation(TETRAHEDRON, ks)


@given(st.tuples(rationals, rationals, rationals, rationals))
def test_cube_closed_form_matches_general(ks):
    assert cf.cube_flag_residual(ks) == rel.verify_flag_relation(CUBE, ks)


def test_simplex_closed_form_higher_rank():
    for n in (4, 5):
        s = Solid("simplex", n)
        ks = tuple(Fraction(k, 3) for k in range(n + 1))
        assert cf.simplex_flag_residual(ks) == rel.verify_flag_relation(s, ks)


# -- Soddy-Gosset ------------------------------------------------------------------


def test_soddy_gosset_basics():
    assert rel.soddy_gosset_residual((0, 0, 1, 1)) == 0
    assert rel.soddy_gosset_residual((-3, 5, 8, 12)) == 0
    assert rel.soddy_gosset_residual((1, 1, 1, 1)) == 16 - 2 * 4


def test_soddy_gosset_4_simplex():
    a = arrangement(Solid("simplex", 4))
    ks = [approx(k) for k in a.curvatures()]
    assert abs(rel.soddy_gosset_residual(ks)) < 1e-9


def test_soddy_gosset_exact_quadruple():
    k4 = 3 + 2 * sqrt_int(3)
    assert rel.soddy_gosset_residual((1, 1, 1, k4)) == 0


@given(
    st.tuples(rationals, rationals, rationals, rationals),
    st.tuples(rationals, rationals, rationals, rationals),
)
def test_soddy_gosset_proportional_to_simplex_flag(ks1, ks2):
    """Means along the flag turn the simplex relation into the tangency one."""

    def means(ks):
        return tuple(
            Fraction(sum(ks[: i + 1]), i + 1) for i in range(len(ks))
        )

    r1 = rel.verify_flag_relation(TETRAHEDRON, means(ks1))
    r2 = rel.verify_flag_relation(TETRAHEDRON, means(ks2))
    s1, s2 = rel.soddy_gosset_residual(ks1), rel.soddy_gosset_residual(ks2)
    assert r1 * s2 == r2 * s1


# -- the polyhedral specialization -------------------------------------------------

FLAG_COEFFS = {
    (3, 3): (Fraction(1, 2), Fraction(3, 2), 3),
    (3, 4): (1, 3, Fraction(3, 2)),
    (4, 3): (2, 2, 2),
    (3, 5): (PHI ** 2, 3 * PHI ** 2, 3 * PHI ** -2),
    (5, 3): (PHI ** 4, 2 + PHI, PHI ** -2 + 1),
}


@pytest.mark.parametrize("pq", sorted(FLAG_COEFFS), ids=str)
def test_platonic_coefficients(pq):
    """The general relation at {p,q} has the paper's printed coefficients."""
    s = solid_from_schlafli(pq)
    a, b, c = FLAG_COEFFS[pq]
    assert rel.verify_flag_relation(s, (1, 0, 0, 0)) == -a
    assert rel.verify_flag_relation(s, (1, 1, 0, 0)) == -b
    assert rel.verify_flag_relation(s, (0, 0, 0, 1)) == 1 - c


@pytest.mark.parametrize("s", PLATONIC, ids=str)
def test_platonic_relation_matches_general(s):
    p, q = s.schlafli
    ks = (Fraction(1, 5), Fraction(-2, 3), Fraction(7, 4), Fraction(11, 6))
    assert cf.platonic_flag_relation(p, q, *ks) == rel.verify_flag_relation(s, ks)


def test_face_relations_fall_back_to_floats_without_an_exact_cos2():
    """cos^2(pi/7) has no exact value: floats go through, exact input raises."""
    assert isinstance(rel.face_next(7, (0.1, 0.2, 0.3)), float)
    assert all(isinstance(k, float) for k in rel.solve_next_polyhedron(7, 3, (0.1, 0.2, 0.3)))
    exact = (Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(ValueError):
        rel.face_next(7, exact)
    with pytest.raises(ValueError):
        rel.solve_next_polyhedron(7, 3, exact)


# -- consecutive elements -----------------------------------------------------------


def test_float_relations_read_the_exact_cos2_table():
    # float data takes the float image of the exact cos^2(pi/p) where there is one
    assert rel.consecutive("edge", 4, 3, vertex=1.0, edge=0.0, face=0.0) == 1.0
    assert cf.face_from_three(4, (0.0, 1.0, 0.0)) == 0.0
    with pytest.raises(ValueError, match="no exact cos"):
        rel.consecutive("edge", 7, 3, vertex=0, edge=1, face=0)
    with pytest.raises(ValueError, match="no exact cos"):
        cf.face_from_three(7, (0, 1, 0))
    assert cf.face_from_three(7, (0.0, 1.0, 0.0)) == pytest.approx(
        1 - 1 / (2 * math.sin(math.pi / 7) ** 2)
    )


def test_consecutive_vertex():
    assert rel.consecutive("vertex", 3, 3, vertex=0, edge=Fraction(1, 2)) == 1


def test_consecutive_polyhedron_tetra():
    kf, kp = Fraction(2, 3), Fraction(5, 4)
    assert rel.consecutive("polyhedron", 3, 3, face=kf, polyhedron=kp) == 3 * kf - kp


def test_consecutive_face_octa():
    ke, kf, ko = Fraction(1, 2), Fraction(1, 3), Fraction(9, 5)
    want = 2 * (Fraction(2, 3) * ke + Fraction(1, 3) * ko) - kf
    assert rel.consecutive("face", 3, 4, edge=ke, face=kf, polyhedron=ko) == want


def test_consecutive_missing_values():
    with pytest.raises(ValueError):
        rel.consecutive("edge", 3, 3, vertex=1, edge=2)
    with pytest.raises(ValueError):
        rel.consecutive("diagonal", 3, 3, vertex=1, edge=2)


@pytest.mark.parametrize("s", PLATONIC, ids=str)
def test_consecutive_matches_geometry(s):
    a = arrangement(s)
    poly = a.polytope
    p, q = s.schlafli
    v, e, f = flags(poly)[0]
    kv = rel.lorentzian_curvature(a, v)
    ke = rel.lorentzian_curvature(a, e)
    kf = rel.lorentzian_curvature(a, f)
    kp = rel.lorentzian_curvature(a)

    v2 = next(iter(e - v))
    got = rel.consecutive("vertex", p, q, vertex=kv, edge=ke)
    assert got == rel.lorentzian_curvature(a, frozenset([v2]))

    e2 = next(x for x in poly.faces(1) if v <= x <= f and x != e)
    got = rel.consecutive("edge", p, q, vertex=kv, edge=ke, face=kf)
    assert got == rel.lorentzian_curvature(a, e2)

    f2 = next(x for x in poly.faces(2) if e <= x and x != f)
    got = rel.consecutive("face", p, q, edge=ke, face=kf, polyhedron=kp)
    assert got == rel.lorentzian_curvature(a, f2)


@pytest.mark.parametrize("s", PLATONIC, ids=str)
def test_consecutive_polyhedron_is_face_inversion(s):
    a = arrangement(s)
    poly = a.polytope
    p, q = s.schlafli
    f = poly.faces(2)[0]
    kf = rel.lorentzian_curvature(a, f)
    kp = rel.lorentzian_curvature(a)
    b_f = dual(a)[poly.faces(2).index(f)]
    reflected = a.transformed(inversion_map(b_f))
    got = rel.consecutive("polyhedron", p, q, face=kf, polyhedron=kp)
    assert got == rel.lorentzian_curvature(reflected)


# -- three consecutive tangent balls ------------------------------------------------


def test_face_from_three_triangle():
    assert cf.face_from_three(3, (0, 0, 1)) == Fraction(1, 3)


def test_face_from_three_square():
    kf = cf.face_from_three(4, (0, 0, 1))
    assert kf == Fraction(1, 2)
    fourth = rel.face_next(4, (0, 0, 1))
    assert Fraction(0 + 0 + 1 + fourth, 4) == kf


@pytest.mark.parametrize("s", PLATONIC, ids=str)
def test_face_from_three_matches_barycenter(s):
    a = arrangement(s)
    poly = a.polytope
    p = s.schlafli[0]
    f = poly.faces(2)[0]
    cyc = face_cycle(poly, f)
    ks = [rel.lorentzian_curvature(a, frozenset([i])) for i in cyc]
    got = cf.face_from_three(p, (ks[0], ks[1], ks[2]))
    assert got == rel.lorentzian_curvature(a, f)


def test_solve_next_tetra():
    plus, minus = rel.solve_next_polyhedron(3, 3, (-3, 5, 8))
    assert {plus, minus} == {Fraction(11, 2), Fraction(9, 2)}


def test_solve_next_tetra_matches_descartes_roots():
    # quadruple means: (-3+5+8+12)/4 and (-3+5+8+8)/4
    assert {Fraction(22, 4), Fraction(18, 4)} == set(
        rel.solve_next_polyhedron(3, 3, (-3, 5, 8))
    )


def test_solve_next_octa():
    assert set(rel.solve_next_polyhedron(3, 4, (-2, 4, 5))) == {9, 5}
    assert set(rel.solve_next_polyhedron(3, 4, (0, 0, 1))) == {1}


def test_solve_next_negative_discriminant():
    with pytest.raises(ValueError):
        rel.solve_next_polyhedron(3, 3, (-10, 1, 1))


SOLVER_TRIPLES = {
    TETRAHEDRON: (-3, 5, 8),
    OCTAHEDRON: (-2, 4, 5),
    CUBE: (5, -3, 12),
    ICOSAHEDRON: (-4, 8, 9),
    DODECAHEDRON: (PHI + 1, -1, 2 * PHI),
}


@pytest.mark.parametrize("s", PLATONIC, ids=str)
def test_roots_sum_matches_consecutive_polyhedra(s):
    p, q = s.schlafli
    triple = SOLVER_TRIPLES[s]
    plus, minus = rel.solve_next_polyhedron(p, q, triple)
    kf = cf.face_from_three(p, triple)
    # sum of curvatures of the two solids sharing the face
    want = rel.consecutive("polyhedron", p, q, face=kf, polyhedron=0)
    assert plus + minus == want


# -- per-family recurrences ----------------------------------------------------------


def test_octahedral_next():
    assert set(cf.octahedral_next((-2, 4, 5))) == {9, 5}
    assert set(rel.solve_next_polyhedron(3, 4, (-2, 4, 5))) == {9, 5}


def test_cubical_next():
    plus, minus = cf.cubical_next((5, -3, 12))
    assert plus == minus == 17
    assert set(rel.solve_next_polyhedron(4, 3, (5, -3, 12))) == {17}


def test_cubical_square_face_and_antipode():
    assert rel.face_next(4, (0, 0, 1)) == 1
    assert cf.antipodal_curvature(1, 0) == 2


def test_icosahedral_next():
    plus, minus = cf.icosahedral_next((-4, 8, 9))
    assert plus == 13 * PHI ** 2 + 2 * PHI ** 3
    assert minus == 13 * PHI ** 2 - 2 * PHI ** 3
    assert rel.solve_next_polyhedron(3, 5, (-4, 8, 9)) == (plus, minus)


def test_dodecahedral_next():
    triple = (PHI + 1, -1, 2 * PHI)
    plus, minus = cf.dodecahedral_next(triple)
    assert plus == 9 * PHI + 5
    assert minus == 7 * PHI + 3
    assert rel.solve_next_polyhedron(5, 3, triple) == (plus, minus)


@pytest.mark.parametrize("s", PLATONIC, ids=str)
def test_next_recurrence_on_projected_face(s):
    """Both roots over a real face: the solid itself and its inversion image."""
    a = arrangement(s)
    poly = a.polytope
    f = poly.faces(2)[0]
    cyc = face_cycle(poly, f)
    ks = [rel.lorentzian_curvature(a, frozenset([i])) for i in cyc]
    roots = rel.solve_next_polyhedron(*s.schlafli, (ks[0], ks[1], ks[2]))
    kp = rel.lorentzian_curvature(a)
    b_f = dual(a)[poly.faces(2).index(f)]
    kp2 = rel.lorentzian_curvature(a.transformed(inversion_map(b_f)))
    assert set(roots) == {kp, kp2}


def test_icosahedral_antipode_on_projection():
    a = arrangement(ICOSAHEDRON)
    poly = a.polytope
    far = next(
        j for j in range(1, len(poly.vertices)) if cf.graph_distance(poly, 0, j) == 3
    )
    k0 = rel.lorentzian_curvature(a, frozenset([0]))
    kfar = rel.lorentzian_curvature(a, frozenset([far]))
    kp = rel.lorentzian_curvature(a)
    assert cf.antipodal_curvature(kp, k0) == kfar


def test_pentagon_walk_on_projection():
    a = arrangement(DODECAHEDRON)
    poly = a.polytope
    f = poly.faces(2)[0]
    cyc = face_cycle(poly, f)
    ks = [rel.lorentzian_curvature(a, frozenset([i])) for i in cyc]
    got = rel.face_next(5, (ks[0], ks[1], ks[2]))
    assert got == ks[3]
    assert rel.face_next(5, (ks[1], ks[2], ks[3])) == ks[4]


def test_dodecahedral_vertex_neighbors_on_projection():
    a = arrangement(DODECAHEDRON)
    poly = a.polytope
    nbrs = sorted(
        next(iter(e - {0})) for e in poly.edges if 0 in e
    )
    kv = rel.lorentzian_curvature(a, frozenset([0]))
    kn = [rel.lorentzian_curvature(a, frozenset([j])) for j in nbrs]
    got = cf.dodecahedral_from_vertex_neighbors(kv, kn)
    assert got == rel.lorentzian_curvature(a)


# -- the general laws against the paper's per-solid forms -------------------------------

small = st.integers(-12, 12)
exact_scalars = st.one_of(
    small,
    rationals,
    st.builds(lambda a, b: a + b * PHI, small, small),
    st.builds(lambda a, b: QuadScalar(a, b, 5), rationals, rationals),
)
exact_triples = st.tuples(exact_scalars, exact_scalars, exact_scalars)


def outcome(f, *args):
    """f(*args), or the type of the error that it raised."""
    try:
        return f(*args)
    except (ValueError, TypeError, ZeroDivisionError) as err:
        return type(err)


@pytest.mark.parametrize("s", PLATONIC, ids=str)
@given(triple=exact_triples, flag=st.tuples(*[exact_scalars] * 4))
@example(triple=(-3, 5, 8), flag=(0, 0, 0, 1))
@example(triple=(-2, 4, 5), flag=(0, 0, 0, 1))
@example(triple=(5, -3, 12), flag=(0, 0, 0, 1))
@example(triple=(-4, 8, 9), flag=(0, 0, 0, 1))
@example(triple=(PHI + 1, -1, 2 * PHI), flag=(0, 0, 0, 1))
@example(triple=(-1, PHI, 2 * PHI), flag=(0, 0, 0, 1))
@example(triple=(0, 0, 1), flag=(0, 0, 0, 1))
def test_general_laws_match_the_printed_forms(s, triple, flag):
    """Each law at the solid's symbol equals its closed form: the same value,
    or an error of the same type."""
    p, q = s.schlafli
    want = outcome(cf.NEXT[p, q], triple)
    assert outcome(rel.solve_next_polyhedron, p, q, triple) == want
    if p in cf.FACE_NEXT:
        assert outcome(rel.face_next, p, triple) == outcome(cf.FACE_NEXT[p], *triple)
    assert outcome(rel.integrality_condition, s, triple) == outcome(
        cf.integrality_condition, s.kind, triple
    )
    assert outcome(rel.verify_flag_relation, s, flag) == outcome(cf.platonic_flag_relation, p, q, *flag)


@pytest.mark.parametrize("s", PLATONIC, ids=str)
def test_face_next_walks_around_every_face(s):
    """k_{i+2} from (k_{i-1}, k_i, k_{i+1}) around each face of the projection."""
    a = arrangement(s)
    p = s.schlafli[0]
    for f in a.polytope.faces(2):
        ks = [rel.lorentzian_curvature(a, frozenset([i])) for i in face_cycle(a.polytope, f)]
        for i in range(p):
            triple = (ks[i - 1], ks[i], ks[(i + 1) % p])
            assert rel.face_next(p, triple) == ks[(i + 2) % p]


# -- integrality certificates ---------------------------------------------------------


def test_integrality_tetrahedral():
    assert rel.integrality_condition(TETRAHEDRON, (-3, 5, 8)) == rel.INTEGRAL
    assert rel.integrality_condition(TETRAHEDRON, (0, 0, 1)) == rel.INTEGRAL
    assert rel.integrality_condition(TETRAHEDRON, (1, 1, 1)) == rel.NOT_CERTIFIED
    assert rel.integrality_condition(TETRAHEDRON, (-3, 5, 7)) == rel.NOT_CERTIFIED


def test_integrality_octahedral_cubical():
    assert rel.integrality_condition(OCTAHEDRON, (-2, 4, 5)) == rel.INTEGRAL
    assert rel.integrality_condition(OCTAHEDRON, (0, 0, 1)) == rel.INTEGRAL
    assert rel.integrality_condition(CUBE, (5, -3, 12)) == rel.INTEGRAL
    assert rel.integrality_condition(CUBE, (0, 0, 1)) == rel.INTEGRAL


def test_integrality_phi():
    assert rel.integrality_condition(ICOSAHEDRON, (-4, 8, 9)) == rel.PHI_INTEGRAL
    assert (
        rel.integrality_condition(ICOSAHEDRON, (-1, PHI, 2 * PHI)) == rel.PHI_INTEGRAL
    )
    assert (
        rel.integrality_condition(DODECAHEDRON, (PHI + 1, -1, 2 * PHI))
        == rel.PHI_INTEGRAL
    )
    assert (
        rel.integrality_condition(DODECAHEDRON, (Fraction(1, 2), 1, 1))
        == rel.NOT_CERTIFIED
    )


def test_integrality_rejects_floats_and_other_solids():
    with pytest.raises(TypeError):
        rel.integrality_condition(TETRAHEDRON, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        rel.integrality_condition(Solid("simplex", 4), (0, 0, 1))


# -- residual scaling -------------------------------------------------------------------


def test_relative_residual():
    assert rel.relative_residual(Fraction(1, 100), 0) == 0.01
    assert rel.relative_residual(1.0, 200.0) == 0.005


def test_float_discriminant_within_rounding_is_a_double_root():
    assert rel._any_sqrt(-1e-12, (1.0, 2.0, 3.0)) == 0.0
    assert rel._any_sqrt(4.0, (1.0, 2.0, 3.0)) == 2.0
    with pytest.raises(ValueError, match="negative discriminant"):
        rel._any_sqrt(-1e-6, (1.0, 2.0, 3.0))
