"""End-to-end acceptance gate: eleven numbered criteria, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Each test states its tolerance and (where bounded) its runtime
budget; the frozen expected values live in curvature_tables.py and
matrix_tables.py.
"""

import math
import time
from fractions import Fraction

from closed_forms import cube_flag_residual, graph_distance, simplex_flag_residual
from curvature_tables import CENTERED_CURVATURES, MOBIUS_SPECTRA, multisets_match
from matrix_tables import (
    COS_DOUBLE,
    CUBE_FAMILY,
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
from ballpack.apollonian import (
    apollonian_group_from_packing,
    generate_cluster,
    packing_from_curvatures,
    perfect_square_sequence,
    platonic_generators,
)
from ballpack.exactnum import RING_Z, RING_Z_PHI, approx, is_float_data, phi, ratio
from ballpack.lorentz import (
    DISJOINT,
    EXTERNALLY_TANGENT,
    MobiusMap,
    apply_map,
    classify_pair,
    lorentz_product,
)
from ballpack.packings import (
    BallArrangement,
    centered_projection,
    is_packing,
    mobius_spectra,
    project,
    with_dual,
)
from ballpack.polytopes import (
    CUBE,
    DODECAHEDRON,
    ICOSAHEDRON,
    OCTAHEDRON,
    PLATONIC,
    TETRAHEDRON,
    Solid,
    flags,
    regular_edge_scribed,
)
from ballpack.relations import (
    flag_curvatures,
    soddy_gosset_residual,
    solve_next_polyhedron,
    verify_flag_relation,
)

PHI = phi()


def report(n: int, message: str) -> None:
    print(f"PASS criterion {n:02d}: {message}")


# -- 1: centered projection curvature tables -----------------------------------


def test_criterion_01_centered_curvature_tables():
    t0 = time.perf_counter()
    cases = 0
    for solid in PLATONIC:
        for rank in (0, 1, 2):
            got = [approx(k) for k in centered_projection(solid, rank).curvatures()]
            want = CENTERED_CURVATURES[(solid.name, rank)]
            assert multisets_match(got, want, tol=1e-9), (solid.name, rank)
            cases += 1
    elapsed = time.perf_counter() - t0
    assert cases == 15
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, f"15 centered curvature multisets match within 1e-9 in {elapsed:.2f}s")


# -- 2: Gramian eigenvalue signatures -------------------------------------------


def test_criterion_02_mobius_spectra_tables():
    t0 = time.perf_counter()
    for solid in PLATONIC:
        got = mobius_spectra(solid)
        assert multisets_match(got, MOBIUS_SPECTRA[solid.name], tol=1e-8), solid.name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(2, f"5 Gramian spectra match within 1e-8 in {elapsed:.2f}s")


# -- 3: explicit generator matrices ---------------------------------------------


def mat_key(m: MobiusMap):
    return tuple(tuple(scalar_key(x) for x in r) for r in m.mat)


def test_criterion_03_explicit_generator_matrices():
    # the five-generator frame, for each triangular-faced solid
    for q in (3, 4, 5):
        gens = platonic_generators(TRIANGULAR[q])
        for name, table in (
            ("s_v", MAT_S_STAR),
            ("r_v", MAT_V),
            ("r_e", MAT_E),
            ("r_f", mat_f(COS_DOUBLE[q])),
            ("s_f", MAT_S),
        ):
            assert mat_equal(generator(gens, name).map, table), (q, name)

    # the three printed inversion families, against the library's groups
    checked = 0
    for solid, family in (
        (TETRAHEDRON, TETRA_FAMILY),
        (OCTAHEDRON, OCTA_FAMILY),
        (CUBE, CUBE_FAMILY),
    ):
        mats = [MobiusMap(m) for m in family]
        seed = platonic_generators(solid).seed
        got = {mat_key(g.map) for g in apollonian_group_from_packing(seed)}
        assert got == {mat_key(m) for m in mats}, solid.name
        for m in mats:
            assert preserves_form(m), solid.name
            assert is_identity(m @ m), solid.name
            checked += 1
    for q in (3, 4, 5):
        for g in platonic_generators(TRIANGULAR[q]):
            assert preserves_form(g.map)
            assert is_identity(g.map @ g.map)
            checked += 1
    report(3, f"{checked} generator matrices entry-exact, form-preserving involutions")


# -- 4: quadratic growth of the unbounded Coxeter pairs --------------------------


def test_criterion_04_coxeter_growth_witnesses():
    for q in (3, 4, 5):
        gens = platonic_generators(TRIANGULAR[q])
        sv_rv = generator(gens, "s_v").map @ generator(gens, "r_v").map
        rf_sf = generator(gens, "r_f").map @ generator(gens, "s_f").map
        c2 = COS_DOUBLE[q] * COS_DOUBLE[q]
        p1 = MobiusMap.identity(2)
        p2 = MobiusMap.identity(2)
        for n in range(1, 21):
            p1 = p1 @ sv_rv
            p2 = p2 @ rf_sf
            assert p1.mat[3][3] == 1 + 2 * n * n, (q, n)
            got = p2.mat[3][3]
            want_exact = 1 + 2 * c2 * n * n
            if q in (3, 4):
                assert got == want_exact, (q, n)
            else:
                # golden case: exact cross-check in the field, plus an
                # independent floating-point trigonometric comparison
                assert got == want_exact, (q, n)
                trig = 1 + 8 * math.cos(math.pi / q) ** 2 * n * n
                assert abs(approx(got) - trig) <= 1e-9 * trig, (q, n)
    report(4, "corner growth 1+2n^2 and 1+8cos^2(pi/q)n^2 holds for n <= 20")


# -- 5: perfect square curvatures -------------------------------------------------


def test_criterion_05_perfect_squares():
    for p in (3, 4, 5):
        seq = perfect_square_sequence(p, 50)
        assert [n for n, _ in seq] == list(range(51))
        for n, ball in seq:
            assert not is_float_data(ball.v)
            assert ball.curvature == n * n, (p, n)
    report(5, "square walks reach curvature n^2 exactly for n <= 50, p in {3,4,5}")


# -- 6: integral clusters ---------------------------------------------------------

# seeds are listed in consecutive-tangency order; the cubical and
# dodecahedral cases present the same curvature multisets as (-3,5,12)
# and (-1,phi+1,2phi) rearranged so neighbours on the seed face touch
INTEGRAL_CLUSTER_CASES = (
    (TETRAHEDRON, (-3, 5, 8), 5, RING_Z),
    (TETRAHEDRON, (0, 0, 1), 5, RING_Z),
    (OCTAHEDRON, (-2, 4, 5), 5, RING_Z),
    (OCTAHEDRON, (0, 0, 1), 5, RING_Z),
    (CUBE, (5, -3, 12), 5, RING_Z),
    (CUBE, (0, 0, 1), 5, RING_Z),
    (ICOSAHEDRON, (-4, 8, 9), 4, RING_Z_PHI),
    (DODECAHEDRON, (PHI + 1, -1, 2 * PHI), 4, RING_Z_PHI),
)


def test_criterion_06_integral_clusters():
    t0 = time.perf_counter()
    sizes = []
    for solid, triple, depth, ring in INTEGRAL_CLUSTER_CASES:
        seed = packing_from_curvatures(solid, triple)
        cluster = generate_cluster(seed, apollonian_group_from_packing(seed), depth)
        assert cluster.curvatures_in_ring(ring), (solid.name, triple)
        sizes.append(len(cluster))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    report(
        6,
        f"8 clusters ({'+'.join(str(s) for s in sizes)} balls) stay in their rings "
        f"in {elapsed:.1f}s",
    )


# -- 7: Descartes quadruples and Soddy-Gosset simplices ---------------------------


def tangent_quadruples(balls):
    """All index 4-sets of mutually externally tangent balls, via bitmasks."""
    n = len(balls)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if classify_pair(balls[i], balls[j]) == EXTERNALLY_TANGENT:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    out = []
    for i in range(n):
        above_i = masks[i] >> (i + 1) << (i + 1)
        j_bits = above_i
        while j_bits:
            j = (j_bits & -j_bits).bit_length() - 1
            j_bits &= j_bits - 1
            common = above_i & masks[j]
            k_bits = common >> (j + 1) << (j + 1)
            while k_bits:
                k = (k_bits & -k_bits).bit_length() - 1
                k_bits &= k_bits - 1
                l_bits = common & masks[k]
                l_bits = l_bits >> (k + 1) << (k + 1)
                while l_bits:
                    l = (l_bits & -l_bits).bit_length() - 1
                    l_bits &= l_bits - 1
                    out.append((i, j, k, l))
    return out


def test_criterion_07_descartes_and_soddy_gosset():
    seed = packing_from_curvatures(TETRAHEDRON, (-3, 5, 8))
    cluster = generate_cluster(seed, apollonian_group_from_packing(seed), 4)
    balls = [e.ball for e in cluster]
    quads = tangent_quadruples(balls)
    assert quads, "no tangent quadruples found"
    for idx in quads:
        ks = [balls[i].curvature for i in idx]
        assert soddy_gosset_residual(ks) == 0, idx

    fseed = packing_from_curvatures(TETRAHEDRON, (-3.0, 5.0, 8.0))
    fcluster = generate_cluster(fseed, apollonian_group_from_packing(fseed), 4)
    fballs = [e.ball for e in fcluster]
    fquads = tangent_quadruples(fballs)
    assert fquads
    for idx in fquads:
        ks = [fballs[i].curvature for i in idx]
        scale = max(1.0, max(abs(k) for k in ks) ** 2)
        assert abs(soddy_gosset_residual(ks)) <= 1e-9 * scale, idx

    for d in (2, 3, 4):
        arr = project(regular_edge_scribed(Solid("simplex", d + 1)))
        ks = [b.curvature for b in arr.balls]
        res = soddy_gosset_residual(ks)
        if is_float_data(ks):
            scale = max(1.0, max(abs(k) for k in ks) ** 2)
            assert abs(res) <= 1e-9 * scale, d
        else:
            assert res == 0, d
    report(
        7,
        f"{len(quads)} exact and {len(fquads)} float tangent quadruples satisfy "
        "the curvature quadratic; simplex projections satisfy Soddy-Gosset for "
        "d = 2, 3, 4",
    )


# -- 8: the flag relation ----------------------------------------------------------


def test_criterion_08_flag_relation_all_solids():
    counts = []
    for solid in PLATONIC:
        p = regular_edge_scribed(solid)
        arr = project(p)
        exact = not is_float_data([x for b in arr.balls for x in b.v])
        n = 0
        for flag in flags(p):
            ks = flag_curvatures(arr, flag)
            res = verify_flag_relation(solid, ks)
            if exact:
                assert res == 0, (solid.name, flag)
            else:
                scale = max(1.0, max(abs(approx(k)) for k in ks) ** 2)
                assert abs(approx(res)) <= 1e-9 * scale, (solid.name, flag)
            if solid is TETRAHEDRON:
                # expanded simplex form: kappa_P^2 equals the weighted sum
                # with coefficients 1/2, 3/2, 3 over the rank differences
                d0, d1, d2 = (ks[i] - ks[i + 1] for i in range(3))
                lhs = ks[3] * ks[3]
                rhs = (
                    Fraction(1, 2) * d0 * d0
                    + Fraction(3, 2) * d1 * d1
                    + 3 * d2 * d2
                )
                assert lhs == rhs, flag
                assert simplex_flag_residual(ks) == 0, flag
            if solid is CUBE:
                assert cube_flag_residual(ks) == 0, flag
            n += 1
        counts.append(n)
    report(
        8,
        f"flag relation holds on {'+'.join(str(c) for c in counts)} flags; "
        "simplex coefficients (1/2, 3/2, 3) and the square-face variant confirmed",
    )


# -- 9: hypercube Gram law ----------------------------------------------------------


def test_criterion_09_hypercube_gram_law():
    for d in (2, 3, 4):
        p = regular_edge_scribed(Solid("cube", d + 1))
        arr = project(p)
        exact = not is_float_data([x for b in arr.balls for x in b.v])
        for u in range(len(arr)):
            for v in range(len(arr)):
                got = lorentz_product(arr[u].v, arr[v].v)
                want = 1 - 2 * graph_distance(p, u, v)
                if exact:
                    assert got == want, (d, u, v)
                else:
                    assert abs(approx(got) - want) <= 1e-9, (d, u, v)
    report(9, "products equal 1 - 2*graph_distance on cubes of dimension 3, 4, 5")


# -- 10: matrix orbit versus curvature recurrences -----------------------------------


def test_criterion_10_octahedral_recurrence_cross_validation():
    seed = packing_from_curvatures(OCTAHEDRON, (-2, 4, 5))
    gens = apollonian_group_from_packing(seed)
    keys = [canonical_ball_key(b) for b in seed.balls]
    facets = {}
    for g in gens:
        fixed = frozenset(
            i
            for i, b in enumerate(seed.balls)
            if canonical_ball_key(apply_map(g.map, b)) == keys[i]
        )
        assert len(fixed) == 3
        facets[g.name] = fixed
    antipode = {}
    for i in range(6):
        others = [
            j
            for j in range(6)
            if j != i and classify_pair(seed.balls[i], seed.balls[j]) == DISJOINT
        ]
        assert len(others) == 1
        antipode[i] = others[0]

    cluster = generate_cluster(seed, gens, 3)
    seed_ks = [b.curvature for b in seed.balls]
    for entry in cluster:
        ks = list(seed_ks)
        k_solid = ratio(sum(ks), 6)
        # replaying the word tail-first walks a chain of octahedra, each
        # sharing a triangle with the previous one; the recurrence gives the
        # next solid's curvature and the antipodal sums give its new balls
        for name in reversed(entry.word):
            face = facets[name]
            r1, r2 = solve_next_polyhedron(3, 4, tuple(ks[i] for i in sorted(face)))
            assert k_solid == r1 or k_solid == r2, entry.word
            k_solid = r2 if k_solid == r1 else r1
            for m in range(6):
                if m not in face:
                    ks[m] = 2 * k_solid - ks[antipode[m]]
        assert ks[entry.orbit] == entry.curvature, (entry.word, entry.orbit)
    report(
        10,
        f"all {len(cluster)} depth-3 octahedral curvatures agree between the "
        "matrix orbit and the recurrence chain, exactly",
    )


# -- 11: the non-packing witness ------------------------------------------------------


def test_criterion_11_five_simplex_cluster_is_not_a_packing():
    arr = with_dual(project(regular_edge_scribed(Solid("simplex", 5))))
    assert arr.dimension == 4
    gens = apollonian_group_from_packing(arr)
    shallow = generate_cluster(arr, gens, 1)
    assert is_packing(BallArrangement(tuple(e.ball for e in shallow)))
    cluster = generate_cluster(arr, gens, 2)
    flat = BallArrangement(tuple(e.ball for e in cluster))
    assert not is_packing(flat)
    report(
        11,
        f"5-simplex cluster stays a packing at depth 1 but fails at depth 2 "
        f"({len(cluster)} balls)",
    )
