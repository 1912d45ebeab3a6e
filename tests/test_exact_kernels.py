"""The exact integer kernels of `verify` against their scalar oracles.

`lorentz.classify_pair` decides an exact pair from the balls' integer
rows, the `flags` check decides an exact projection's flags from integer
curvature sums, and `apollonian._is_involution` squares an exact map on
its integer row.  Each must give the answer of the same computation in
Fraction and QuadScalar arithmetic: the relation, or the error type and
message, of every pair; a zero residual on exactly the flags whose scalar
residual is zero; and the same involution verdicts.  The one exception is a
pair of balls in two quadratic fields, which is refused even where the
scalar product would never multiply two irrational parts.
"""

import contextlib
import dataclasses
import functools
import io
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import document_oracle as oracle
from ballpack import cli
from ballpack.apollonian import (
    FLAVOR_DUAL,
    ROLE_SYMMETRY,
    Generator,
    GeneratorSet,
    _is_involution,
    apollonian_group_from_packing,
    platonic_generators,
)
from ballpack.documents import document_from_entries, from_json, to_json
from ballpack.exactnum import QuadScalar, compare
from ballpack.lorentz import (
    EQUAL,
    INTERNALLY_TANGENT,
    NESTED,
    ORTHOGONAL,
    OVERLAPPING,
    Ball,
    MobiusMap,
    ball_from_geometry,
    classify_pair,
    geometry_from_ball,
    inversion_map,
    product_scale,
)
from ballpack.packings import BallArrangement
from ballpack.polytopes import flags, regular_edge_scribed, solid_from_name
from ballpack.relations import exact_flag_residuals, flag_curvatures, verify_flag_relation
from test_document_rows import PROJECTED, SEEDS

# the README seeds (Q(sqrt 2) and Q(sqrt 5) rows, some balls rational) and a
# scaled seed whose rows are python ints, at depths 0-2; and projections in
# Q, Q(sqrt 3) and Q(sqrt 2), of dimensions 4, 3 and 3
SOURCES = (
    *(("cluster", solid, initials[0], depth) for solid, initials in SEEDS.items() for depth in (0, 1, 2)),
    *(("cluster", "tetrahedron", "-3000,5000,8000", depth) for depth in (0, 1, 2)),
    ("projection", "cube-5"),
    ("projection", "cube-4"),
    ("projection", "orthoplex-4"),
)


@functools.lru_cache(maxsize=None)
def balls_of(source) -> tuple:
    kind, solid, *rest = source
    if kind == "projection":
        return cli._made_by({"kind": kind, "solid": solid, "center": "none"}).balls
    initial, depth = rest
    made = cli._made_by({"kind": kind, "solid": solid, "initial": initial.split(","), "depth": depth})
    return tuple(made.entry(i).ball for i in range(len(made)))


def built(b: Ball, relation: str) -> Ball:
    """A ball in the relation to the disk b (curvature k > 0, radius r, center
    c) that its name says, in b's field."""
    g = geometry_from_ball(b)
    k, r, c, d = b.curvature, g.radius, g.center, b.dimension

    def moved(by):
        return (c[0] + by, *c[1:])

    if relation == EQUAL:
        return Ball(tuple(b.v))
    if relation == NESTED:
        return ball_from_geometry(d, center=c, curvature=2 * k)
    if relation == INTERNALLY_TANGENT:
        return ball_from_geometry(d, center=moved(r / 2), curvature=2 * k)
    if relation == OVERLAPPING:
        return ball_from_geometry(d, center=moved(r), curvature=k)
    # radii r and 3r/4 at distance 5r/4
    return ball_from_geometry(d, center=moved(5 * r / 4), curvature=4 * k / 3)


BUILT = (EQUAL, NESTED, INTERNALLY_TANGENT, OVERLAPPING, ORTHOGONAL)
PAST_DIRECTED = "cannot classify a pair of past-directed balls"


def outcome(classify, b1, b2):
    try:
        return classify(b1, b2)
    except Exception as err:  # the same error type and message are wanted
        return type(err), str(err)


def negated(b: Ball) -> Ball:
    return Ball(tuple(-x for x in b.v))


def field_of(b: Ball) -> int:
    """The modulus of b's irrational coordinates, 0 when it has none."""
    return next((x.m for x in b.v if isinstance(x, QuadScalar) and x.m), 0)


def expected(b1: Ball, b2: Ball):
    """The oracle's outcome, but balls in two fields are refused, both
    fields named in operand order, unless both are past-directed."""
    want = outcome(oracle.classify_pair, b1, b2)
    f1, f2 = field_of(b1), field_of(b2)
    if f1 and f2 and f1 != f2 and want != (ValueError, PAST_DIRECTED):
        return ValueError, f"cannot mix fields Q(sqrt {f1}) and Q(sqrt {f2})"
    return want


@st.composite
def pairs(draw):
    first = draw(st.sampled_from(SOURCES))
    second = first if draw(st.integers(0, 3)) else draw(st.sampled_from(SOURCES))
    xs, ys = balls_of(first), balls_of(second)
    b1 = xs[draw(st.integers(0, len(xs) - 1))]
    form = draw(st.sampled_from(("drawn", "negated", "built")))
    if form == "built" and b1.curvature > 0:
        return b1, built(b1, draw(st.sampled_from(BUILT)))
    b2 = ys[draw(st.integers(0, len(ys) - 1))]
    if form == "negated":
        which = draw(st.sampled_from(("first", "second", "both")))
        b1 = negated(b1) if which != "second" else b1
        b2 = negated(b2) if which != "first" else b2
    return b1, b2


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pairs())
def test_an_exact_pair_is_classified_as_the_scalar_oracle_does(pair):
    b1, b2 = pair
    assert outcome(classify_pair, b1, b2) == expected(b1, b2)
    assert outcome(classify_pair, b2, b1) == expected(b2, b1)


@pytest.mark.parametrize("source", [SOURCES[2], SOURCES[11], SOURCES[-3]], ids=["Q2", "Q5", "Q"])
@pytest.mark.parametrize("relation", BUILT)
def test_a_built_pair_has_its_relation(source, relation):
    b = next(b for b in balls_of(source) if b.curvature > 0)
    other = built(b, relation)
    assert classify_pair(b, other) == oracle.classify_pair(b, other) == relation


def test_refusals_keep_their_messages():
    tetra = next(b for b in balls_of(SOURCES[1]) if b.curvature > 0 and b.v[0].b != 0)
    ico = next(b for b in balls_of(SOURCES[10]) if b.curvature > 0 and b.v[0].b != 0)
    cube5 = balls_of(SOURCES[-3])[0]
    for b1, b2, error in (
        (negated(tetra), negated(ico), "cannot classify a pair of past-directed balls"),
        (tetra, ico, "cannot mix fields Q(sqrt 2) and Q(sqrt 5)"),
        (tetra, cube5, "dimension mismatch: 4 vs 6"),
    ):
        assert outcome(classify_pair, b1, b2) == (ValueError, error)
        assert outcome(oracle.classify_pair, b1, b2) == (ValueError, error)


def test_two_fields_whose_irrational_parts_never_meet_are_refused():
    """The scalars could form this product, but two rows meet in two fields."""
    root2, root3 = QuadScalar(0, 1, 2), QuadScalar(0, 1, 3)
    a = ball_from_geometry(2, center=(root2, 0), curvature=1)
    b = ball_from_geometry(2, center=(0, root3), curvature=1)
    assert oracle.classify_pair(a, b) == "disjoint"
    assert outcome(classify_pair, a, b) == (ValueError, "cannot mix fields Q(sqrt 2) and Q(sqrt 3)")
    assert outcome(classify_pair, b, a) == (ValueError, "cannot mix fields Q(sqrt 3) and Q(sqrt 2)")


# -- the flag kernel ------------------------------------------------------------


def planted(arr: BallArrangement) -> BallArrangement:
    """The arrangement with its first disk replaced by the disk of twice its
    curvature about the same center: a valid exact ball, but not a vertex."""
    i = next(i for i, b in enumerate(arr.balls) if b.curvature > 0)
    g = geometry_from_ball(arr[i])
    ball = ball_from_geometry(arr.dimension, center=g.center, curvature=2 * arr[i].curvature)
    return BallArrangement((*arr.balls[:i], ball, *arr.balls[i + 1 :]))


@pytest.mark.parametrize("center", ["none", "vertex", "edge", "face"])
@pytest.mark.parametrize("solid", PROJECTED)
def test_an_integer_flag_residual_is_zero_exactly_when_the_scalar_one_is(solid, center):
    try:
        arr = cli._made_by({"kind": "projection", "solid": solid, "center": center})
    except ValueError:  # a centering the solid lacks
        return
    s = solid_from_name(solid)
    chains = flags(regular_edge_scribed(s))
    for a, faulty in ((arr, False), (planted(arr), True)):
        residuals = exact_flag_residuals(s, chains, a.curvatures())
        if residuals is None:
            assert any(isinstance(x, float) for x in (*a.curvatures(), *a[0].v))
            continue
        zero = [verify_flag_relation(s, flag_curvatures(a, flag)) == 0 for flag in chains]
        assert [r == (0, 0) for r in residuals] == zero
        assert all(zero) != faulty


@pytest.mark.parametrize("solid", ["cube-5", "icosahedron"])
def test_a_planted_vertex_fails_the_flags_check_with_the_scalar_line(solid, tmp_path):
    path = tmp_path / "doc.json"
    assert cli.main(["project", "--solid", solid, "--out", str(path)]) == 0
    doc = from_json(path.read_text(encoding="utf-8"))
    arr = planted(BallArrangement(tuple(e.ball for e in doc.entries)))
    entries = [dataclasses.replace(e, inversive=b.v) for e, b in zip(doc.entries, arr.balls)]
    text = to_json(document_from_entries(doc.dimension, entries, solid=doc.solid, seed=doc.seed))
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify", "--in", str(path), "--checks", "flags"])
    assert rc == 1 and out.getvalue().startswith("flags: FAILED (flag ")
    assert (rc, out.getvalue(), err.getvalue()) == oracle.verify(text, "flags")


# -- the involution check ----------------------------------------------------------


def scalar_is_involution(m: MobiusMap) -> bool:
    rows, cols = m.mat, tuple(zip(*m.mat))
    sq = (m @ m).mat
    return all(
        compare(sq[i][j], int(i == j), lambda: product_scale(rows[i], cols[j])) == 0
        for i in range(len(sq))
        for j in range(len(sq))
    )


@pytest.mark.parametrize("solid", sorted(SEEDS))
def test_the_involution_check_agrees_with_the_scalar_square(solid):
    seed = cli._made_by({"kind": "cluster", "solid": solid, "initial": SEEDS[solid][0].split(","),
                         "depth": 0}).seed
    maps = [g.map for gens in (apollonian_group_from_packing(seed), platonic_generators(solid_from_name(solid)))
            for g in gens]
    maps += [g @ h for g in maps[:4] for h in maps[:4]]
    verdicts = [_is_involution(m) for m in maps]
    assert verdicts == [scalar_is_involution(m) for m in maps]
    assert any(verdicts) and not all(verdicts)


def test_an_exact_map_that_is_no_involution_is_refused():
    half = Fraction(1, 2)
    a = inversion_map(ball_from_geometry(2, center=(QuadScalar(0, 1, 2), 0), curvature=1))
    b = inversion_map(ball_from_geometry(2, center=(0, half), curvature=2))
    assert _is_involution(a) and not _is_involution(a @ b)
    # c = (1 + 2 sqrt 2)/3 has c^2 = 1 + (4/9) sqrt 2: a rational part of 1
    c = QuadScalar(Fraction(1, 3), Fraction(2, 3), 2)
    scaled = MobiusMap(tuple(tuple(c if i == j else 0 for j in range(4)) for i in range(4)), check=False)
    assert not _is_involution(scaled) and not scalar_is_involution(scaled)
    with pytest.raises(ValueError) as err:
        GeneratorSet(FLAVOR_DUAL, (Generator("t", ROLE_SYMMETRY, a @ b),))
    assert str(err.value) == "generator 't' is not an involution"
