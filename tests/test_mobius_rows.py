"""The Mobius layer against its scalar oracle, and what its rows save.

`lorentz` takes exact light sources, maps, inversions and reflections on
integer rows, and the balls and maps it makes keep their rows;
`frame_oracle` keeps the scalar versions.  Projections, seeds, dual balls
and generator maps must come out equal to the oracle's, and refusals equal
in type and message.  A projection takes one square root, and the balls of
a seed need no row derived again when they are classified.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import frame_oracle
from ballpack import lorentz
from ballpack.apollonian import apollonian_group_from_packing, generate_cluster, packing_from_curvatures
from ballpack.exactnum import (
    exact_row,
    is_float_data,
    phi,
    quad_value,
    scaled_row,
    sqrt_int,
)
from ballpack.lorentz import Ball, classify_pair, reflection_map
from ballpack.packings import face_to_north, project
from ballpack.polytopes import (
    CUBE,
    DODECAHEDRON,
    ICOSAHEDRON,
    OCTAHEDRON,
    PLATONIC,
    TETRAHEDRON,
    Polytope,
    Solid,
    polar_dual,
    regular_edge_scribed,
    solid_from_name,
)

PHI = phi()

# every solid that regular_edge_scribed realizes
SOLIDS = (
    *PLATONIC,
    *(solid_from_name(n) for n in ("triangle", "square", "5-gon", "6-gon", "7-gon")),
    *(Solid(k, n) for k in ("simplex", "cube", "cross") for n in (4, 5)),
)
EXACT_SOLIDS = tuple(
    s for s in SOLIDS if not any(is_float_data(v) for v in regular_edge_scribed(s).vertices)
)

# the README seeds, and one whose rows pass int64
SEEDS = (
    (TETRAHEDRON, (-3, 5, 8)),
    (OCTAHEDRON, (-2, 4, 5)),
    (CUBE, (5, -3, 12)),
    (ICOSAHEDRON, (-4, 8, 9)),
    (DODECAHEDRON, (1 + PHI, -1, 2 * PHI)),
    (TETRAHEDRON, (-3000, 5000, 8000)),
)
SEED_IDS = [f"{s}:{','.join(map(str, t))}" for s, t in SEEDS]


CENTERS = {"none": None, "vertex": 0, "edge": 1, "face": 2}
# every realized solid under every centering it has (polygons have no faces)
CENTERED = [(s, c) for s in SOLIDS for c in CENTERS if s.dimension >= 2 or c != "face"]


@pytest.mark.parametrize("solid, center", CENTERED, ids=[f"{s}-{c}" for s, c in CENTERED])
def test_project_equals_the_scalar_oracle(solid, center):
    p = regular_edge_scribed(solid)
    if center != "none":
        p = face_to_north(p, CENTERS[center])
    assert project(p).balls == frame_oracle.project(p).balls


@pytest.mark.parametrize("solid, triple", SEEDS, ids=SEED_IDS)
def test_seed_balls_and_dual_balls_equal_the_scalar_oracle(solid, triple):
    seed = packing_from_curvatures(solid, triple)
    assert (seed.balls, seed.dual_balls) == frame_oracle.packing_from_curvatures(solid, triple)


@pytest.mark.parametrize("solid, triple", SEEDS, ids=SEED_IDS)
def test_generator_maps_equal_the_scalar_oracle(solid, triple):
    gens = apollonian_group_from_packing(packing_from_curvatures(solid, triple))
    _, duals = frame_oracle.packing_from_curvatures(solid, triple)
    assert [g.map for g in gens] == [frame_oracle.inversion_map(b) for b in duals]


_curvature = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    st.builds(lambda a, b: a + b * PHI, st.integers(-9, 9), st.integers(-4, 4)),
    st.builds(lambda a, b: a + b * sqrt_int(2), st.integers(-9, 9), st.integers(-4, 4)),
)
# most random triples are refused; a seed scaled by lam > 0, in either order
# around its face, is realized
_seeds = st.one_of(
    st.tuples(st.sampled_from(PLATONIC), st.tuples(_curvature, _curvature, _curvature)),
    st.builds(
        lambda seed, lam, flip: (seed[0], tuple(lam * k for k in seed[1][:: -1 if flip else 1])),
        st.sampled_from(SEEDS),
        st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=20),
        st.booleans(),
    ),
)


_ints = st.lists(st.integers(-60, 60), min_size=4, max_size=4)


@given(_ints, _ints, st.integers(-30, 30), st.integers(-30, 30).filter(bool), st.sampled_from([0, 2, 5]))
def test_scaled_row_is_the_exact_row_of_its_vector(A, B, num, den, m):
    if not m:
        B = [0] * 4
    vector = [quad_value((a * num, den, b * num, den), m) for a, b in zip(A, B)]
    assert scaled_row(A, B, num, den, m) == exact_row(vector)


def _outcome(build):
    try:
        return "made", build()
    except ValueError as err:
        return type(err), str(err)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_seeds)
@example((DODECAHEDRON, (1, 3 - 2 * PHI, 5 - 2 * PHI)))  # its root lies in another field
def test_random_exact_seeds_and_refusals_equal_the_scalar_oracle(seed):
    solid, triple = seed

    def program():
        made = packing_from_curvatures(solid, triple)
        return made.balls, made.dual_balls

    assert _outcome(program) == _outcome(lambda: frame_oracle.packing_from_curvatures(solid, triple))


def test_a_light_source_in_another_field_than_its_root_is_refused_as_the_oracle_refuses():
    # cube-4's polar vertices lie in Q(sqrt 3), and |u|^2 - 1 = 2
    p = polar_dual(regular_edge_scribed(solid_from_name("cube-4")))
    with pytest.raises(ValueError) as got:
        project(p)
    with pytest.raises(ValueError) as want:
        frame_oracle.project(p)
    assert str(got.value) == str(want.value) == "cannot mix fields Q(sqrt 3) and Q(sqrt 2)"


@pytest.mark.parametrize(
    "u",
    [(Fraction(1, 2), 0, 0), (0, 1, 0), (sqrt_int(2) / 2, sqrt_int(2) / 2, 0), (0.5, 0.5, 0.5)],
    ids=["inside", "on the sphere", "on the sphere in Q(sqrt 2)", "float inside"],
)
def test_light_sources_on_or_inside_the_sphere_are_refused_as_the_oracle_refuses(u):
    p = Polytope((u,), {0: (frozenset([0]),)})
    for build in (project, frame_oracle.project):
        with pytest.raises(ValueError, match="light source must lie strictly outside the unit sphere"):
            build(p)


def test_light_sources_in_two_fields_are_refused():
    """The scalar formula would divide each coordinate by s = 2 and never
    multiply sqrt 2 by sqrt 3, but a source in two fields has no row."""
    r2, r3 = sqrt_int(2), sqrt_int(3)
    p = Polytope(((r2, r3, 0), (r3, 0, r2)), {0: (frozenset([0]), frozenset([1]))})
    assert len(frame_oracle.project(p).balls) == 2
    with pytest.raises(ValueError) as got:
        project(p)
    assert str(got.value) == "cannot mix fields Q(sqrt 2) and Q(sqrt 3)"


@pytest.mark.parametrize(
    "x, t",
    [
        ((Fraction(3, 4), 0, Fraction(5, 4), Fraction(3, 2)), (0, 0, 1, 1)),
        ((0, 0, 1, 1), (0, 0, 1, 1)),  # n = 0
        ((1, 0, 0, 0), (1, 0, 0, 2)),  # time-like n
        ((0, 1, 0, 0), (sqrt_int(2), 1, 0, sqrt_int(2))),  # space-like, in Q(sqrt 2)
        ((0.25, 0.5, 1.0, 1.5), (0, 0, 1, 1)),
    ],
)
def test_reflections_equal_the_scalar_oracle(x, t):
    n = tuple(a - b for a, b in zip(x, t))
    scale = lambda: sum((abs(a) + abs(b)) ** 2 for a, b in zip(x, t))  # noqa: E731
    assert reflection_map(n, scale) == frame_oracle.reflection_swapping(x, t)


@pytest.mark.parametrize("solid", EXACT_SOLIDS, ids=str)
def test_project_takes_one_square_root(solid, monkeypatch):
    calls = []
    real = lorentz.exact_sqrt
    monkeypatch.setattr(lorentz, "exact_sqrt", lambda x: calls.append(x) or real(x))
    arr = project(regular_edge_scribed(solid))
    assert len(arr) == len(regular_edge_scribed(solid).vertices) > 1
    assert len(calls) == 1


@pytest.mark.parametrize("solid, triple", SEEDS, ids=SEED_IDS)
def test_classifying_a_seed_derives_no_row(solid, triple, monkeypatch):
    seed = packing_from_curvatures(solid, triple)
    balls = seed.balls + seed.dual_balls
    calls = []
    real = lorentz.exact_row
    monkeypatch.setattr(lorentz, "exact_row", lambda parts: calls.append(parts) or real(parts))
    past = lorentz._is_past_directed  # a pair of such balls is refused
    kinds = {
        classify_pair(a, b)
        for i, a in enumerate(balls)
        for b in balls[i + 1 :]
        if not (past(a) and past(b))
    }
    assert lorentz.EXTERNALLY_TANGENT in kinds and lorentz.ORTHOGONAL in kinds
    assert calls == []


@pytest.mark.parametrize("solid, triple", SEEDS, ids=SEED_IDS)
def test_growing_a_cluster_builds_no_scalar_vector_or_matrix(solid, triple, monkeypatch):
    # the facet inversions are born with their rows, and the involution
    # check, the ping-pong certificate and the engine read only rows
    seed = packing_from_curvatures(solid, triple)
    calls = []
    for name in ("exact_row", "row_vector"):
        real = getattr(lorentz, name)
        monkeypatch.setattr(lorentz, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    c = generate_cluster(seed, apollonian_group_from_packing(seed), 2)
    assert len(c) > len(seed.balls)
    assert calls == []


def test_an_image_keeps_the_row_of_its_vector():
    seed = packing_from_curvatures(ICOSAHEDRON, (-4, 8, 9))
    for b in seed.balls + seed.dual_balls:
        assert b._row == lorentz.exact_row(b.v)
    assert all(isinstance(b, Ball) for b in seed.balls)
