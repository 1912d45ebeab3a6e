from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballpack import linalg
from ballpack.apollonian import (
    FLAVOR_DUAL,
    FLAVOR_FULL,
    Generator,
    GeneratorSet,
    ROLE_DUAL_INVERSION,
    ROLE_PRIMAL_INVERSION,
    ROLE_SYMMETRY,
    apollonian_group_from_packing,
    generate_cluster,
    is_apollonian_packing,
    is_ping_pong,
    orbit_coloring,
    packing_from_curvatures,
    perfect_square_sequence,
    platonic_generators,
)
from ballpack.documents import document_from_cluster
from ballpack.exactnum import (
    RING_Z,
    RING_Z_PHI,
    approx,
    is_ring_integer,
    ratio,
    scalar_sign,
)
from ballpack.lorentz import (
    Ball,
    DISJOINT,
    EXTERNALLY_TANGENT,
    MobiusMap,
    apply_map,
    ball_from_geometry,
    classify_pair,
    inversion_map,
    lorentz_product,
)
from ballpack.packings import BallArrangement, is_packing, project, with_dual
from ballpack.polytopes import (
    CUBE,
    DODECAHEDRON,
    ICOSAHEDRON,
    OCTAHEDRON,
    PHI,
    PLATONIC,
    SQRT2,
    TETRAHEDRON,
    face_cycle,
    regular_edge_scribed,
    solid_from_name,
)

from matrix_tables import (
    COS_DOUBLE,
    CUBE_FAMILY,
    DUAL_SOLID,
    MAT_E,
    MAT_S,
    MAT_S_STAR,
    MAT_V,
    OCTA_FAMILY,
    TETRA_FAMILY,
    TRIANGULAR,
    canonical_ball_key,
    generator,
    is_identity,
    mat_equal,
    mat_f,
    preserves_form,
    scalar_key,
)

HALF = Fraction(1, 2)


def assert_mat_equal(m: MobiusMap, rows):
    assert mat_equal(m, rows), f"{[list(r) for r in m.mat]} != {[list(r) for r in rows]}"


def mat_key(m: MobiusMap):
    return tuple(tuple(scalar_key(x) for x in r) for r in m.mat)


def conj(a: MobiusMap, b: MobiusMap) -> MobiusMap:
    return a @ b @ a


# -- the five-generator frame ----------------------------------------------------


@pytest.mark.parametrize("q", (3, 4, 5))
def test_triangular_frame_generators_are_the_frozen_matrices(q):
    gens = platonic_generators(TRIANGULAR[q])
    assert gens.flavor == FLAVOR_FULL
    assert gens.names == ("s_v", "r_v", "r_e", "r_f", "s_f")
    assert_mat_equal(generator(gens, "s_v").map, MAT_S_STAR)
    assert_mat_equal(generator(gens, "r_v").map, MAT_V)
    assert_mat_equal(generator(gens, "r_e").map, MAT_E)
    assert_mat_equal(generator(gens, "r_f").map, mat_f(COS_DOUBLE[q]))
    assert_mat_equal(generator(gens, "s_f").map, MAT_S)
    assert generator(gens, "s_v").role == ROLE_PRIMAL_INVERSION
    assert generator(gens, "s_f").role == ROLE_DUAL_INVERSION
    assert generator(gens, "r_e").role == ROLE_SYMMETRY


@pytest.mark.parametrize("q", (4, 5))
def test_dual_solid_frame_swaps_the_outer_and_inner_pairs(q):
    gens = platonic_generators(DUAL_SOLID[q])
    assert_mat_equal(generator(gens, "s_v").map, MAT_S)
    assert_mat_equal(generator(gens, "r_v").map, mat_f(COS_DOUBLE[q]))
    assert_mat_equal(generator(gens, "r_e").map, MAT_E)
    assert_mat_equal(generator(gens, "r_f").map, MAT_V)
    assert_mat_equal(generator(gens, "s_f").map, MAT_S_STAR)


@pytest.mark.parametrize("solid", PLATONIC, ids=lambda s: s.name)
def test_generators_are_form_preserving_involutions(solid):
    for g in platonic_generators(solid):
        assert preserves_form(g.map)
        assert is_identity(g.map @ g.map)


@pytest.mark.parametrize("q", (3, 4, 5))
def test_coxeter_relations_of_the_frame(q):
    gens = platonic_generators(TRIANGULAR[q])
    s_v, r_v, r_e, r_f, s_f = (generator(gens, n).map for n in gens.names)
    assert is_identity((r_v @ r_e) @ (r_v @ r_e) @ (r_v @ r_e))
    prod_ef = r_e @ r_f
    pw = MobiusMap.identity(2)
    for _ in range(q):
        pw = pw @ prod_ef
    assert is_identity(pw)
    # non-adjacent pairs of the path commute
    for a, b in (
        (s_v, r_e),
        (s_v, r_f),
        (s_v, s_f),
        (r_v, r_f),
        (r_v, s_f),
        (r_e, s_f),
    ):
        assert is_identity((a @ b) @ (a @ b))


@pytest.mark.parametrize("q", (3, 4, 5))
def test_unbounded_pairs_grow_quadratically(q):
    # the two path ends carry no finite order: the corner entry of the n-th
    # power grows as 1 + 2n^2 and 1 + 2 (2cos(pi/q))^2 n^2
    gens = platonic_generators(TRIANGULAR[q])
    sv_rv = generator(gens, "s_v").map @ generator(gens, "r_v").map
    rf_sf = generator(gens, "r_f").map @ generator(gens, "s_f").map
    c2 = COS_DOUBLE[q] * COS_DOUBLE[q]
    p1 = MobiusMap.identity(2)
    p2 = MobiusMap.identity(2)
    for n in range(1, 13):
        p1 = p1 @ sv_rv
        p2 = p2 @ rf_sf
        assert p1.mat[3][3] == 1 + 2 * n * n
        assert p2.mat[3][3] == 1 + 2 * c2 * n * n


@pytest.mark.parametrize("q", (3, 4, 5))
def test_normalized_seed_contains_the_frame_balls(q):
    seed = platonic_generators(TRIANGULAR[q]).seed
    keys = {canonical_ball_key(b) for b in seed.balls}
    upper = ball_from_geometry(2, normal=(0, 1), offset=1)
    lower = ball_from_geometry(2, normal=(0, -1), offset=1)
    unit = ball_from_geometry(2, center=(0, 0), curvature=1)
    for b in (upper, lower, unit):
        assert canonical_ball_key(b) in keys
    assert is_packing(seed)
    mirror = inversion_map(ball_from_geometry(2, normal=(1, 0), offset=-COS_DOUBLE[q]))
    assert {canonical_ball_key(apply_map(mirror, b)) for b in seed.balls} == keys


@pytest.mark.parametrize("q", (3, 4, 5))
def test_symmetries_permute_seed_and_conjugate_inversions(q):
    gens = platonic_generators(TRIANGULAR[q])
    seed = gens.seed
    keys = {canonical_ball_key(b) for b in seed.balls}
    for name in ("r_v", "r_e", "r_f"):
        r = generator(gens, name).map
        moved = {canonical_ball_key(apply_map(r, b)) for b in seed.balls}
        assert moved == keys
        for b in seed.balls[:4]:
            lhs = conj(r, inversion_map(b))
            rhs = inversion_map(apply_map(r, b))
            assert mat_key(lhs) == mat_key(rhs)


def _product_rows(balls, others) -> Counter:
    """The multiset of each ball's sorted row of Lorentz products with the others."""
    return Counter(
        tuple(sorted(scalar_key(lorentz_product(x.v, y.v)) for y in others)) for x in balls
    )


@pytest.mark.parametrize("solid", PLATONIC, ids=lambda s: s.name)
def test_frame_seed_is_the_projection_made_by_the_mirrors(solid):
    gens = platonic_generators(solid)
    seed = gens.seed
    poly = regular_edge_scribed(solid)
    projection = with_dual(project(poly))
    assert len(seed.balls) == len(poly.vertices)
    assert len(seed.dual_balls) == len(poly.faces(2))
    assert is_packing(seed)
    got, want = ((x.balls, x.dual_balls) for x in (seed, projection))
    for a, b in ((0, 0), (1, 1), (1, 0)):  # balls, facet balls, facet balls against balls
        assert _product_rows(got[a], got[b]) == _product_rows(want[a], want[b])
    p = solid.schlafli[0]
    for f in seed.dual_balls:
        assert sum(lorentz_product(f.v, b.v) == 0 for b in seed.balls) == p
    for name in ("r_v", "r_e", "r_f"):
        r = generator(gens, name).map
        for balls in (seed.balls, seed.dual_balls):
            keys = {canonical_ball_key(b) for b in balls}
            assert {canonical_ball_key(apply_map(r, b)) for b in balls} == keys


def test_generator_set_validation():
    mirror = inversion_map(ball_from_geometry(2, normal=(1, 0), offset=0))
    g = Generator("m", ROLE_SYMMETRY, mirror)
    for flavor in ("B", "SA"):
        with pytest.raises(ValueError, match="flavor"):
            GeneratorSet(flavor, (g,))
    with pytest.raises(ValueError, match="empty"):
        GeneratorSet(FLAVOR_DUAL, ())
    shift = mirror @ inversion_map(ball_from_geometry(2, normal=(1, 0), offset=1))
    with pytest.raises(ValueError, match="involution"):
        GeneratorSet(FLAVOR_DUAL, (Generator("t", ROLE_SYMMETRY, shift),))
    mirror3 = inversion_map(ball_from_geometry(3, normal=(1, 0, 0), offset=0))
    with pytest.raises(ValueError, match="dimension"):
        GeneratorSet(FLAVOR_DUAL, (g, Generator("n", ROLE_SYMMETRY, mirror3)))


# -- the integral inversion families ----------------------------------------------


def test_tetrahedral_family_matches_recipes_and_packing():
    t4, t3, t2, t1 = (MobiusMap(m) for m in TETRA_FAMILY)
    f3 = MobiusMap(mat_f(1))
    e = MobiusMap(MAT_E)
    v = MobiusMap(MAT_V)
    assert mat_key(conj(f3, t4)) == mat_key(t3)
    assert mat_key(conj(e, t3)) == mat_key(t2)
    assert mat_key(conj(v, t2)) == mat_key(t1)
    seed = platonic_generators(TETRAHEDRON).seed
    got = {mat_key(g.map) for g in apollonian_group_from_packing(seed)}
    assert got == {mat_key(m) for m in (t1, t2, t3, t4)}


def test_octahedral_family_matches_recipes_and_packing():
    mats = [MobiusMap(m) for m in OCTA_FAMILY]
    f4 = MobiusMap(mat_f(SQRT2))
    e = MobiusMap(MAT_E)
    v = MobiusMap(MAT_V)
    recipes = ((f4, 0), (e, 1), (v, 2), (f4, 2), (v, 4), (e, 5), (f4, 6))
    for target, (outer, src) in enumerate(recipes, start=1):
        assert mat_key(conj(outer, mats[src])) == mat_key(mats[target])
    seed = platonic_generators(OCTAHEDRON).seed
    got = {mat_key(g.map) for g in apollonian_group_from_packing(seed)}
    assert got == {mat_key(m) for m in mats}


def test_cubical_family_matches_recipes_and_packing():
    mats = [MobiusMap(m) for m in CUBE_FAMILY]
    f4 = MobiusMap(mat_f(SQRT2))
    e = MobiusMap(MAT_E)
    v = MobiusMap(MAT_V)
    recipes = ((v, 0), (e, 1), (f4, 2), (e, 3), (v, 4))
    for target, (outer, src) in enumerate(recipes, start=1):
        assert mat_key(conj(outer, mats[src])) == mat_key(mats[target])
    seed = platonic_generators(CUBE).seed
    got = {mat_key(g.map) for g in apollonian_group_from_packing(seed)}
    assert got == {mat_key(m) for m in mats}


@pytest.mark.parametrize(
    "family", (TETRA_FAMILY, OCTA_FAMILY, CUBE_FAMILY), ids=("tetra", "octa", "cube")
)
def test_families_are_form_preserving_involutions(family):
    for rows in family:
        m = MobiusMap(rows)
        assert preserves_form(m)
        assert is_identity(m @ m)


def test_apollonian_group_needs_a_dual():
    b1 = ball_from_geometry(2, center=(0, 0), curvature=1)
    b2 = ball_from_geometry(2, center=(2, 0), curvature=1)
    with pytest.raises(ValueError):
        apollonian_group_from_packing(BallArrangement((b1, b2)))


# -- seeding from curvatures -------------------------------------------------------


def test_seed_from_curvatures_tetrahedron():
    arr = packing_from_curvatures(TETRAHEDRON, (-3, 5, 8))
    assert is_packing(arr)
    ks = sorted(approx(b.curvature) for b in arr.balls)
    assert ks == [-3, 5, 8, 8]
    assert all(is_ring_integer(b.curvature, RING_Z) for b in arr.balls)


def test_seed_from_curvatures_octahedron_antipodal_sums():
    arr = packing_from_curvatures(OCTAHEDRON, (-2, 4, 5))
    ks = sorted(approx(b.curvature) for b in arr.balls)
    assert ks == [-2, 4, 5, 5, 6, 12]
    # opposite balls of the octahedron share a common curvature sum
    total = sum(ks)
    pair_sum = total / 3
    assert pair_sum == 10
    vals = sorted(ks)
    assert vals[0] + vals[-1] == pair_sum
    assert vals[1] + vals[-2] == pair_sum
    assert vals[2] + vals[-3] == pair_sum


def test_seed_from_curvatures_cube():
    arr = packing_from_curvatures(CUBE, (5, -3, 12))
    ks = sorted(approx(b.curvature) for b in arr.balls)
    assert ks == [-3, 5, 12, 14, 20, 22, 29, 37]
    total = sum(ks)
    for lo, hi in ((0, 7), (1, 6), (2, 5), (3, 4)):
        assert ks[lo] + ks[hi] == total / 4


def test_seed_from_curvatures_icosahedron_has_golden_integers():
    arr = packing_from_curvatures(ICOSAHEDRON, (-4, 8, 9))
    assert all(is_ring_integer(b.curvature, RING_Z_PHI) for b in arr.balls)
    ks = sorted(approx(b.curvature) for b in arr.balls)
    assert ks[0] == -4 and 8 in ks and 9 in ks and 13 in ks


def test_seed_from_curvatures_orders_anchors_along_the_face():
    arr = packing_from_curvatures(TETRAHEDRON, (0, 0, 1))
    ks = sorted(approx(b.curvature) for b in arr.balls)
    assert ks == [0, 0, 1, 1]


def test_seed_from_curvatures_rejects_bad_input():
    with pytest.raises(ValueError, match="three"):
        packing_from_curvatures(TETRAHEDRON, (1, 2))
    with pytest.raises(ValueError):
        packing_from_curvatures(TETRAHEDRON, (1, 1, -5))


def test_seed_from_curvatures_float_fallback():
    with pytest.raises(ValueError, match="float mode"):
        packing_from_curvatures(TETRAHEDRON, (1, 2, 3))
    arr = packing_from_curvatures(TETRAHEDRON, (1.0, 2.0, 3.0))
    assert is_packing(arr)
    ks = [b.curvature for b in arr.balls]
    for want in (1, 2, 3):
        assert any(abs(k - want) < 1e-9 for k in ks)
    # the classical four-ball relation pins the remaining curvature
    k4 = next(k for k in ks if all(abs(k - w) > 1e-6 for w in (1, 2, 3)))
    assert (1 + 2 + 3 + k4) ** 2 == pytest.approx(2 * (1 + 4 + 9 + k4 * k4), abs=1e-6)


# -- clusters -----------------------------------------------------------------------


def test_cluster_depth_zero_is_the_seed():
    gens = platonic_generators(TETRAHEDRON)
    c = generate_cluster(gens.seed, apollonian_group_from_packing(gens.seed), depth=0)
    assert len(c) == 4
    assert {canonical_ball_key(e.ball) for e in c} == {
        canonical_ball_key(b) for b in gens.seed.balls
    }
    assert all(e.word == () and e.depth == 0 for e in c)
    assert sorted(e.orbit for e in c) == [0, 1, 2, 3]


def test_tetra_cluster_growth_is_frozen():
    gens = platonic_generators(TETRAHEDRON)
    ag = apollonian_group_from_packing(gens.seed)
    sizes = [len(generate_cluster(gens.seed, ag, depth=d)) for d in range(4)]
    assert sizes == [4, 8, 20, 56]
    ssa_sizes = [len(generate_cluster(gens.seed, gens, depth=d)) for d in range(4)]
    assert ssa_sizes == [4, 9, 15, 27]


# vertices V, facets F and vertices per facet v_f of each Platonic solid
COUNTS = {
    TETRAHEDRON: (4, 4, 3),
    OCTAHEDRON: (6, 8, 3),
    CUBE: (8, 6, 4),
    ICOSAHEDRON: (12, 20, 3),
    DODECAHEDRON: (20, 12, 5),
}


def closed_form_level_sizes(solid, depth) -> list:
    """n_0 = V, n_1 = F (V - v_f), n_k = n_1 (F - 1)^(k - 1): an inversion in
    a facet ball fixes the balls of that facet and moves the rest, and after
    that each ball has F - 1 children, none of them met before."""
    v, f, vf = COUNTS[solid]
    return [v] + [f * (v - vf) * (f - 1) ** (k - 1) for k in range(1, depth + 1)]


def level_sizes(c) -> list:
    """The number of entries at each depth, 0 to the cluster's depth."""
    counts = Counter(c.rows()["depth"].tolist())
    return [counts[k] for k in range(c.depth + 1)]


@pytest.mark.parametrize("solid", PLATONIC, ids=lambda s: s.name)
def test_platonic_cluster_first_level_counts(solid):
    seed = platonic_generators(solid).seed
    c = generate_cluster(seed, apollonian_group_from_packing(seed), depth=3)
    assert level_sizes(c) == closed_form_level_sizes(solid, 3)
    assert len(c) == sum(closed_form_level_sizes(solid, 3))


def test_cluster_words_replay_to_their_balls():
    gens = platonic_generators(TETRAHEDRON)
    ag = apollonian_group_from_packing(gens.seed)
    c = generate_cluster(gens.seed, ag, depth=3)
    by_name = {g.name: g.map for g in ag}
    for e in c:
        assert len(e.word) == e.depth
        for a, b in zip(e.word, e.word[1:]):
            assert a != b
        m = MobiusMap.identity(2)
        for name in e.word:
            m = by_name[name] @ m
        replay = apply_map(m, gens.seed.balls[e.orbit])
        assert canonical_ball_key(replay) == canonical_ball_key(e.ball)
        assert e.curvature == e.ball.curvature


def test_cluster_exposure_order_and_determinism():
    gens = platonic_generators(OCTAHEDRON)
    ag = apollonian_group_from_packing(gens.seed)
    c1 = generate_cluster(gens.seed, ag, depth=2)
    c2 = generate_cluster(gens.seed, ag, depth=2)
    e1, e2 = list(c1), list(c2)
    assert [e.word for e in e1] == [e.word for e in e2]
    assert [canonical_ball_key(e.ball) for e in e1] == [
        canonical_ball_key(e.ball) for e in e2
    ]
    depths = [e.depth for e in e1]
    assert depths == sorted(depths)
    keys = [canonical_ball_key(e.ball) for e in e1]
    assert len(set(keys)) == len(keys)


def test_cluster_new_ball_curvature_obeys_facet_relation():
    # inverting the ball opposite a tetrahedral facet lands on curvature
    # 2 (sum of the facet's three curvatures) - old
    arr = packing_from_curvatures(TETRAHEDRON, (-3, 5, 8))
    ag = apollonian_group_from_packing(arr)
    c = generate_cluster(arr, ag, depth=1)
    seed_curvs = [b.curvature for b in arr.balls]
    total = sum(seed_curvs)
    for e in c:
        if e.depth == 0:
            continue
        old = seed_curvs[e.orbit]
        assert e.curvature == 2 * (total - old) - old


def test_cluster_is_apollonian_and_orbit_colored():
    gens = platonic_generators(TETRAHEDRON)
    ag = apollonian_group_from_packing(gens.seed)
    c = generate_cluster(gens.seed, ag, depth=2)
    assert is_apollonian_packing(c)
    coloring = orbit_coloring(c)
    assert len(coloring) == len(c)
    assert set(coloring.values()) == {0, 1, 2, 3}
    ssa = generate_cluster(gens.seed, gens, depth=2)
    with pytest.raises(ValueError, match="dual-inversion"):
        orbit_coloring(ssa)


def test_cluster_streaming_matches_entries():
    gens = platonic_generators(TETRAHEDRON)
    ag = apollonian_group_from_packing(gens.seed)
    c = generate_cluster(gens.seed, ag, depth=2)
    assert list(c.curvatures()) == [e.curvature for e in c]
    assert len(list(c)) == len(c)
    assert repr(c).startswith("Cluster(")


def test_a_cluster_entry_takes_a_negative_index_from_the_end_as_its_document_does():
    seed = packing_from_curvatures(TETRAHEDRON, (-1, 2, 2))
    c = generate_cluster(seed, apollonian_group_from_packing(seed), depth=2)
    entries, n = document_from_cluster(c).entries, len(c)
    assert n == 20 and entries[-1].depth == 2 and entries[-1].curvature == 23
    for i in (0, -1, -n, n - 1):
        assert c.entry(i) == entries[i], i
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            c.entry(i)


def test_cluster_integrality_certificates():
    tet = packing_from_curvatures(TETRAHEDRON, (-3, 5, 8))
    c = generate_cluster(tet, apollonian_group_from_packing(tet), depth=2)
    assert c.curvatures_in_ring(RING_Z)
    ico = packing_from_curvatures(ICOSAHEDRON, (-4, 8, 9))
    ci = generate_cluster(ico, apollonian_group_from_packing(ico), depth=1)
    assert ci.curvatures_in_ring(RING_Z_PHI)
    assert not ci.curvatures_in_ring(RING_Z)
    with pytest.raises(ValueError, match="ring"):
        c.curvatures_in_ring("Z[i]")


G = 10**9  # scales seeds so that every level's ring products pass 2^63


@pytest.mark.parametrize(
    "solid,initial,depth,ring,expected",
    [
        (TETRAHEDRON, (-3 * G, 5 * G, 8 * G), 2, RING_Z, True),
        (TETRAHEDRON, tuple(Fraction(k * G, 7) for k in (-3, 5, 8)), 2, RING_Z, False),
        (DODECAHEDRON, (G + G * PHI, -G, 2 * G * PHI), 1, RING_Z_PHI, True),
        (DODECAHEDRON, (G + G * PHI, -G, 2 * G * PHI), 1, RING_Z, False),
    ],
    ids=["tetrahedron-Z", "tetrahedron-sevenths", "dodecahedron-Zphi", "dodecahedron-Z"],
)
def test_ring_test_beyond_int64_products_agrees_with_each_curvature(
    solid, initial, depth, ring, expected
):
    seed = packing_from_curvatures(solid, initial)
    c = generate_cluster(seed, apollonian_group_from_packing(seed), depth)
    assert c.curvatures_in_ring(ring) is expected
    assert all(is_ring_integer(k, ring) for k in c.curvatures()) is expected


def test_cluster_integrality_rejects_non_integers():
    scaled = packing_from_curvatures(TETRAHEDRON, (0, 0, Fraction(1, 3)))
    c = generate_cluster(scaled, apollonian_group_from_packing(scaled), depth=1)
    assert not c.curvatures_in_ring(RING_Z)


README_SEEDS = {
    "tetrahedron": (TETRAHEDRON, (-3, 5, 8)),
    "octahedron": (OCTAHEDRON, (-2, 4, 5)),
    "cube": (CUBE, (5, -3, 12)),
    "icosahedron": (ICOSAHEDRON, (-4, 8, 9)),
    "dodecahedron": (DODECAHEDRON, (1 + PHI, -1, 2 * PHI)),
}


@pytest.mark.parametrize("case", [*README_SEEDS, "cube-ssa"])
def test_cluster_object_mode_agrees_with_vectorized(case):
    import ballpack.apollonian as mod

    if case == "cube-ssa":
        gens, depth = platonic_generators(CUBE), 4
        seed = gens.seed
    else:
        seed = packing_from_curvatures(*README_SEEDS[case])
        gens, depth = apollonian_group_from_packing(seed), 2
    fast = generate_cluster(seed, gens, depth)
    store = mod._exact_cluster(seed, gens.maps, depth, dtype=object)
    slow = mod.Cluster(seed, gens.flavor, depth, gens.names, store)
    assert slow._store.mode == "obj" and fast._store.mode == "i64"
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert canonical_ball_key(a.ball) == canonical_ball_key(b.ball)
        assert (a.curvature, a.depth, a.word, a.orbit) == (
            b.curvature,
            b.depth,
            b.word,
            b.orbit,
        )


# -- the ping-pong certificate ------------------------------------------------------

CERTIFIED_SEEDS = {
    **README_SEEDS,
    "tetrahedron-big-int": (TETRAHEDRON, (-3000, 5000, 8000)),
    "tetrahedron-1-2-2": (TETRAHEDRON, (-1, 2, 2)),
}


def _row_table(c) -> tuple:
    """Every entry's row, word and orbit, as python values in entry order."""
    r = c.rows()
    names = ("V",) if "V" in r else ("A", "B", "num", "den")
    return tuple(r[k].tolist() for k in (*names, "orbit")), r["word"]


@pytest.mark.parametrize("case", CERTIFIED_SEEDS)
def test_platonic_seeds_are_certified(case):
    seed = packing_from_curvatures(*CERTIFIED_SEEDS[case])
    assert is_ping_pong(seed, apollonian_group_from_packing(seed))


def test_the_cube_seed_meets_a_refused_pair_that_is_orthogonal(monkeypatch):
    # its outer ball (curvature -3) and its facet half-plane are both
    # past-directed, which classify_pair refuses; their product is 0
    import ballpack.apollonian as mod

    refused = []

    def counting(a, b):
        try:
            return classify_pair(a, b)
        except ValueError:
            refused.append(lorentz_product(a.v, b.v))
            raise

    seed = packing_from_curvatures(CUBE, (5, -3, 12))
    monkeypatch.setattr(mod, "classify_pair", counting)
    assert is_ping_pong(seed, apollonian_group_from_packing(seed))
    assert refused == [0]


def test_a_refused_pair_passes_only_as_orthogonal():
    from ballpack.apollonian import _apart

    # three disks, each more than a hemisphere of the sphere (|c|^2 + 1 < r^2),
    # so past-directed: radius 2 about the origin, and radii 3 and 4 about
    # (2, 0) and (-3, 0), which cross at right angles (5^2 = 3^2 + 4^2)
    big = ball_from_geometry(2, center=(0, 0), curvature=HALF)
    right = ball_from_geometry(2, center=(2, 0), curvature=Fraction(1, 3))
    left = ball_from_geometry(2, center=(-3, 0), curvature=Fraction(1, 4))
    for a, b in ((big, right), (right, left)):
        with pytest.raises(ValueError, match="past-directed"):
            classify_pair(a, b)
    assert not _apart(big, right, orthogonal=True)
    assert _apart(right, left, orthogonal=True)
    assert not _apart(right, left)


def test_sets_that_are_not_facet_inversions_of_the_seed_are_not_certified():
    a = with_dual(project(regular_edge_scribed(solid_from_name("orthoplex-4"))))
    assert not is_ping_pong(a, apollonian_group_from_packing(a))  # orthogonal facet pairs
    for solid in PLATONIC:
        gens = platonic_generators(solid)
        assert not is_ping_pong(gens.seed, gens), solid.name
    seed = packing_from_curvatures(TETRAHEDRON, (-3, 5, 8))
    facets = apollonian_group_from_packing(seed)
    own = tuple(
        Generator(f"p{i}", ROLE_DUAL_INVERSION, inversion_map(b)) for i, b in enumerate(seed.balls)
    )
    twice = (*facets.generators, Generator("again", ROLE_DUAL_INVERSION, facets.maps[0]))
    for gens in (own, twice):
        assert not is_ping_pong(seed, GeneratorSet(FLAVOR_DUAL, gens, seed))
    assert not is_ping_pong(seed, GeneratorSet(FLAVOR_DUAL, facets.generators))  # no seed
    floaty = packing_from_curvatures(TETRAHEDRON, (-3.0, 5.0, 8.0))
    assert not is_ping_pong(floaty, apollonian_group_from_packing(floaty))
    assert not is_ping_pong(seed.approx(), facets)


@pytest.mark.parametrize("case", CERTIFIED_SEEDS)
def test_a_certified_seed_grows_the_cluster_of_the_seen_set(case, monkeypatch):
    import ballpack.apollonian as mod

    seed = packing_from_curvatures(*CERTIFIED_SEEDS[case])
    gens = apollonian_group_from_packing(seed)
    calls = []
    fresh = mod._first_fresh
    monkeypatch.setattr(mod, "_first_fresh", lambda *a: calls.append(1) or fresh(*a))
    free = generate_cluster(seed, gens, 3)
    assert len(calls) == 1 + (free._store.mode == "obj")  # the seed level of each run
    for dtype in (None, object):
        store = mod._exact_cluster(seed, gens.maps, 3, dtype=dtype)
        assert store.mode == ("obj" if dtype else free._store.mode)
        kept = mod.Cluster(seed, gens.flavor, 3, gens.names, store)
        assert _row_table(kept) == _row_table(free)


@st.composite
def _realized_triples(draw):
    """A Platonic solid and three curvatures it realizes: three consecutive
    balls around a face of the image of a README seed under a random word of
    its facet inversions, scaled by a random lam > 0."""
    solid, triple = draw(st.sampled_from(list(README_SEEDS.values())))
    seed = packing_from_curvatures(solid, triple)
    maps = apollonian_group_from_packing(seed).maps
    poly = regular_edge_scribed(solid)
    cycle = face_cycle(poly, draw(st.sampled_from(poly.faces(2))))
    at = draw(st.integers(0, len(cycle) - 1))
    step = draw(st.sampled_from((1, -1)))
    balls = [seed.balls[cycle[(at + step * i) % len(cycle)]] for i in range(3)]
    for g in draw(st.lists(st.integers(0, len(maps) - 1), max_size=3)):
        balls = [apply_map(maps[g], b) for b in balls]
    lam = draw(st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=20))
    return solid, tuple(lam * b.curvature for b in balls)


@settings(max_examples=25, deadline=None)
@given(_realized_triples(), st.integers(0, 3))
def test_a_realized_seed_is_certified_and_grows_distinct_rows_in_closed_form_level_sizes(
    case, depth
):
    solid, triple = case
    seed = packing_from_curvatures(solid, triple)
    gens = apollonian_group_from_packing(seed)
    assert is_ping_pong(seed, gens)
    depth = min(depth, 2 if solid in (ICOSAHEDRON, DODECAHEDRON) else 3)
    c = generate_cluster(seed, gens, depth)
    (A, B, num, den, _), _ = _row_table(c)
    assert len({(tuple(a), tuple(b), n, d) for a, b, n, d in zip(A, B, num, den)}) == len(c)
    assert level_sizes(c) == closed_form_level_sizes(solid, depth)


@pytest.mark.parametrize("case", [*CERTIFIED_SEEDS, "float"])
def test_cluster_curvatures_have_the_values_and_types_of_the_entries(case):
    solid, triple = CERTIFIED_SEEDS.get(case, (TETRAHEDRON, (-3.0, 5.0, 8.0)))
    seed = packing_from_curvatures(solid, triple)
    c = generate_cluster(seed, apollonian_group_from_packing(seed), 2)
    got = [(type(k), k) for k in c.curvatures()]
    assert got == [(type(e.curvature), e.curvature) for e in c]


def _curvatures_and_words_by_depth(c):
    out = {}
    for e in c:
        ks, words = out.setdefault(e.depth, ([], []))
        ks.append(e.curvature)
        words.append(e.word)
    return {k: (sorted(ks), sorted(words)) for k, (ks, words) in out.items()}


@pytest.mark.parametrize("depth", [3, 6])
def test_scaled_seed_takes_the_big_int_path_and_scales_exactly(depth):
    small = packing_from_curvatures(TETRAHEDRON, (-3, 5, 8))
    big = packing_from_curvatures(TETRAHEDRON, (-3000, 5000, 8000))
    c_small = generate_cluster(small, apollonian_group_from_packing(small), depth)
    c_big = generate_cluster(big, apollonian_group_from_packing(big), depth)
    assert c_small._store.mode == "i64" and c_big._store.mode == "obj"
    by_small = _curvatures_and_words_by_depth(c_small)
    by_big = _curvatures_and_words_by_depth(c_big)
    assert sorted(by_big) == sorted(by_small) == list(range(depth + 1))
    for k, (ks, words) in by_small.items():
        assert by_big[k] == ([1000 * x for x in ks], words)


def test_cluster_float_mode():
    gens = platonic_generators(TETRAHEDRON)
    seed = gens.seed.approx()
    ag = apollonian_group_from_packing(seed)
    c = generate_cluster(seed, ag, depth=2)
    assert c._store.mode == "float"
    assert len(c) == 20
    assert is_apollonian_packing(c)
    with pytest.raises(ValueError, match="exact"):
        c.curvatures_in_ring(RING_Z)


# float curvature error relative to max(1, |exact|) at depth 3: measured at
# most 1e-10, except 2.6e-6 on the icosahedron, whose generator entries
# reach 3.4e5
FLOAT_CURVATURE_REL = {"icosahedron": 1e-5}


@pytest.mark.parametrize("case", README_SEEDS)
def test_float_cluster_matches_the_exact_one(case):
    solid, triple = README_SEEDS[case]
    clusters = []
    for ks in (triple, tuple(map(approx, triple))):
        seed = packing_from_curvatures(solid, ks)
        clusters.append(generate_cluster(seed, apollonian_group_from_packing(seed), 3))
    ex, fl = clusters
    assert fl._store.mode == "float"
    # the same number of balls at every depth 0..3
    assert fl._store.offsets == ex._store.offsets and len(ex._store.offsets) == 5
    bound = FLOAT_CURVATURE_REL.get(case, 1e-9)
    for k_ex, k_fl in zip(map(approx, ex.curvatures()), fl.curvatures(), strict=True):
        assert abs(k_fl - k_ex) <= bound * max(1.0, abs(k_ex))


def _word_order(c) -> list:
    """(depth, generator positions of the word, orbit) of each entry, in entry order."""
    r = c.rows()
    at = {name: i for i, name in enumerate(c.generator_names)}
    return [
        (d, tuple(at[g] for g in w), o)
        for d, w, o in zip(r["depth"].tolist(), r["word"], r["orbit"].tolist(), strict=True)
    ]


def _strictly_increasing(seq) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


@pytest.mark.parametrize("case", README_SEEDS)
def test_entries_are_in_word_order_and_float_twins_agree(case):
    solid, triple = README_SEEDS[case]
    for depth in range(4):
        exact, fl = (
            _word_order(generate_cluster(seed, apollonian_group_from_packing(seed), depth))
            for seed in (packing_from_curvatures(solid, ks) for ks in (triple, map(approx, triple)))
        )
        assert _strictly_increasing(exact)
        assert fl == exact


@pytest.mark.parametrize("case", ["cube-ssa", "tetrahedron-big-int"])
def test_entries_are_in_word_order_on_the_ssa_and_big_int_paths(case):
    if case == "cube-ssa":
        gens = platonic_generators(CUBE)
        seed, mode = gens.seed, "i64"
    else:
        seed, mode = packing_from_curvatures(TETRAHEDRON, (-3000, 5000, 8000)), "obj"
        gens = apollonian_group_from_packing(seed)
    c = generate_cluster(seed, gens, 6)
    assert c._store.mode == mode
    assert _strictly_increasing(_word_order(c))


def test_float_seed_discriminant_is_judged_by_its_own_rounding():
    # <y0, y0> = 324 carries terms near 1e8 (y0 is large), but it is far
    # outside the rounding those terms leave in it
    with pytest.raises(ValueError, match="not realizable"):
        packing_from_curvatures(TETRAHEDRON, (18.0, -18.0, 7348.396471738055))


def test_cluster_validation():
    gens = platonic_generators(TETRAHEDRON)
    ag = apollonian_group_from_packing(gens.seed)
    with pytest.raises(ValueError, match="depth"):
        generate_cluster(gens.seed, ag, depth=-1)
    mirror3 = inversion_map(ball_from_geometry(3, normal=(1, 0, 0), offset=0))
    gens3 = GeneratorSet(FLAVOR_DUAL, (Generator("m", ROLE_SYMMETRY, mirror3),))
    with pytest.raises(ValueError, match="dimension"):
        generate_cluster(gens.seed, gens3, depth=1)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6))
def test_random_words_stay_on_the_unit_shell(word):
    gens = platonic_generators(TETRAHEDRON)
    maps = gens.maps
    m = MobiusMap.identity(2)
    for i in word:
        m = maps[i] @ m
    assert preserves_form(m)
    b = apply_map(m, gens.seed.balls[0])
    assert lorentz_product(b.v, b.v) == 1


# -- the perfect-square walk --------------------------------------------------------


def lam_of(p):
    return COS_DOUBLE[p] * COS_DOUBLE[p]


def edge_matrix(lam):
    """The inversion in the circle at (0, -lam) of radius 2 sqrt(lam),
    written directly in terms of lam; frozen closed form."""
    a = lam * lam - 4 * lam - 1
    b = lam * lam - 4 * lam + 1
    c = 1 - (lam - 4) * (lam - 4) * lam * lam
    return (
        (1, 0, 0, 0),
        (0, 1 - ratio(lam, 2), ratio(a, 4), -ratio(b, 4)),
        (0, ratio(a, 4), 1 - ratio(a * a, 8 * lam), -ratio(c, 8 * lam)),
        (0, ratio(b, 4), ratio(c, 8 * lam), 1 + ratio(b * b, 8 * lam)),
    )


def walk_power_matrix(lam, root, n):
    two = 2 * root * n
    sq = 2 * lam * n * n
    return (
        (1, 0, two, -two),
        (0, 1, 0, 0),
        (-two, 0, 1 - sq, sq),
        (-two, 0, -sq, 1 + sq),
    )


@pytest.mark.parametrize("p", (3, 4, 5))
def test_square_walk_matrices_match_closed_form(p):
    root = COS_DOUBLE[p]
    lam = lam_of(p)
    edge = inversion_map(
        ball_from_geometry(2, center=(0, -lam), curvature=ratio(1, 2 * root))
    )
    assert_mat_equal(edge, edge_matrix(lam))
    face = inversion_map(ball_from_geometry(2, normal=(1, 0), offset=-root))
    flip = inversion_map(Ball((1, 0, 0, 0)))
    step = face @ flip
    power = MobiusMap.identity(2)
    for n in range(8):
        assert_mat_equal(power, walk_power_matrix(lam, root, n))
        power = power @ step


@pytest.mark.parametrize("p", (3, 4, 5))
def test_square_walk_curvatures_are_perfect_squares(p):
    seq = perfect_square_sequence(p, 12)
    assert [n for n, _ in seq] == list(range(13))
    for n, b in seq:
        assert b.curvature == n * n
        assert lorentz_product(b.v, b.v) == 1


@pytest.mark.parametrize("p", (3, 4, 5))
def test_square_walk_balls_live_in_one_packing(p):
    seq = perfect_square_sequence(p, 7)
    balls = [b for _, b in seq]
    start = ball_from_geometry(2, normal=(0, 1), offset=lam_of(p))
    assert canonical_ball_key(balls[0]) == canonical_ball_key(start)
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            kind = classify_pair(balls[i], balls[j])
            assert kind in (EXTERNALLY_TANGENT, DISJOINT)
    if p == 3:
        # in the strip frame the squares form one tangent chain
        for a, b in zip(balls, balls[1:]):
            assert classify_pair(a, b) == EXTERNALLY_TANGENT


def test_square_walk_validation():
    with pytest.raises(ValueError, match="3, 4 or 5"):
        perfect_square_sequence(6, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        perfect_square_sequence(3, -1)


# -- structural invariants of the generator matrices ---------------------------


@pytest.mark.parametrize("solid", PLATONIC, ids=lambda s: s.name)
def test_generator_bottom_right_entries_are_positive(solid):
    for g in platonic_generators(solid):
        assert g.map.mat[-1][-1] > 0


@pytest.mark.parametrize(
    "solid,triple,depth",
    (
        (TETRAHEDRON, (-3, 5, 8), 5),
        (OCTAHEDRON, (-2, 4, 5), 4),
        (CUBE, (5, -3, 12), 4),
    ),
    ids=("tetra", "octa", "cube"),
)
def test_cluster_generators_and_level_minima_stay_positive(solid, triple, depth):
    seed = packing_from_curvatures(solid, triple)
    gens = apollonian_group_from_packing(seed)
    for g in gens:
        assert g.map.mat[-1][-1] > 0
    cluster = generate_cluster(seed, gens, depth)
    seed_min = min(triple)
    level_min = {}
    for e in cluster:
        k = level_min.get(e.depth)
        if k is None or e.curvature < k:
            level_min[e.depth] = e.curvature
    mins = [level_min[k] for k in sorted(level_min)]
    assert mins[0] == seed_min
    # reflections only ever fill gaps, so the smallest new curvature per
    # level never decreases
    for a, b in zip(mins, mins[1:]):
        assert a <= b


@pytest.mark.parametrize("triple", ((5.0, -3.0, 12.0), (5.0, -3.0, 12 + 1e-12), (5.0, -3.0, 12 - 1e-12)))
def test_float_seed_within_rounding_of_the_light_cone_is_its_double_root(triple):
    from ballpack.apollonian import _future_null_with_products

    # the cube's 5, -3, 12 has -<y0, y0> = 0 exactly; in floats it reads
    # about -1e-13, and with the last curvature moved by 1e-12 about +-1e-12,
    # all rounding of terms near 289, so y is y0 itself, on either side
    poly = regular_edge_scribed(CUBE)
    arr = with_dual(project(poly)).approx()
    a = [arr.balls[v].v for v in face_cycle(poly, poly.faces(2)[0])[:3]]
    g3 = [[lorentz_product(u, v) for v in a] for u in a]
    c = linalg.solve(g3, tuple(-k for k in triple))
    y0 = tuple(sum(ci * x for ci, x in zip(c, cols)) for cols in zip(*a))
    assert lorentz_product(y0, y0) != 0
    assert _future_null_with_products(a, arr.dual_balls[0].v, triple) == y0


@pytest.mark.parametrize("solid", PLATONIC, ids=lambda s: s.name)
def test_each_face_dual_ball_is_orthogonal_to_its_vertex_balls_and_faces_the_rest(solid):
    # the seed solve's premise: the anchors span the complement of the first
    # face's dual ball, and y0 - t b lowers every off-face curvature
    poly = regular_edge_scribed(solid)
    arr = with_dual(project(poly))
    for face, b in zip(poly.faces(2), arr.dual_balls, strict=True):
        assert lorentz_product(b.v, b.v) == 1
        for v, x in enumerate(arr.balls):
            want = 0 if v in face else -1
            assert scalar_sign(lorentz_product(x.v, b.v)) == want, (face, v)


def test_a_seed_whose_two_solids_are_both_past_directed_says_so():
    # the cube's -2, -8, -8 is realizable, but both solids over the face are
    # past-directed
    with pytest.raises(ValueError, match="^curvature triple has no future-pointing realization$"):
        packing_from_curvatures(CUBE, (-2, -8, -8))
