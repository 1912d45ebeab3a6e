"""The pair screen against the loop over all pairs.

``packings.pair_screen`` proves most pairs disjoint in floating point and
leaves the rest to ``classify_pair``.  These properties check, on random
subsets of Platonic clusters in exact and float mode with planted special
pairs, that nothing it skips could change an answer: ``first_overlap`` and
the tangent cliques of ``verify --checks soddy`` agree with the all-pairs
loop, down to the pair that raises, and every skipped pair is DISJOINT.
The subsets are drawn from the cluster's entries (balls made from scalar
vectors) or from its document (balls born with their integer rows).
"""

import inspect
import sys
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ballpack.apollonian import (
    apollonian_group_from_packing,
    generate_cluster,
    packing_from_curvatures,
)
from ballpack import cli
from ballpack.cli import TANGENT_NODES, TANGENT_TUPLES, _tangent_cliques, main, parse_initial
from ballpack.documents import document_from_cluster
from ballpack.exactnum import QuadScalar, phi, scalar_sign, sqrt_int
from ballpack.lorentz import (
    DISJOINT,
    EXTERNALLY_TANGENT,
    Ball,
    ball_from_geometry,
    classify_pair,
    geometry_from_ball,
    row_of,
)
from ballpack.packings import classified_pairs, first_overlap, pair_screen
from ballpack.polytopes import solid_from_name

SEEDS = (
    ("tetrahedron", "-3,5,8", 3),
    ("octahedron", "-2,4,5", 2),
    ("cube", "5,-3,12", 2),
    ("icosahedron", "-4,8,9", 1),
    ("dodecahedron", "1+phi,-1,2phi", 1),
)
PLANTS = ("equal", "nested", "internally_tangent", "orthogonal", "overlapping",
          "past", "large", "huge", "infinite")


@lru_cache(maxsize=None)
def cluster(solid: str, initial: str, depth: int, mode: str):
    seed = packing_from_curvatures(solid_from_name(solid), parse_initial(initial, mode))
    return generate_cluster(seed, apollonian_group_from_packing(seed), depth)


@lru_cache(maxsize=None)
def cluster_balls(solid: str, initial: str, depth: int, mode: str) -> tuple:
    return tuple(e.ball for e in cluster(solid, initial, depth, mode))


@lru_cache(maxsize=None)
def cluster_document(solid: str, initial: str, depth: int, mode: str):
    return document_from_cluster(cluster(solid, initial, depth, mode))


def _disk(center, curvature, floaty: bool) -> Ball:
    if floaty:
        center, curvature = tuple(map(float, center)), float(curvature)
    return ball_from_geometry(len(center), center=center, curvature=curvature)


def planted(kind: str, host: Ball, floaty: bool) -> list:
    """Balls to add next to ``host`` (a disk of positive curvature) so that
    the list holds a pair of the given kind."""
    geo = geometry_from_ball(host)
    c, r, k = geo.center, geo.radius, host.curvature
    moved = lambda dx: (c[0] + dx,) + tuple(c[1:])  # noqa: E731
    if kind == "equal":
        return [host, Ball(host.v)]
    if kind == "nested":
        return [host, _disk(c, 2 * k, floaty)]
    if kind == "internally_tangent":
        return [host, _disk(moved(r / 2), 2 * k, floaty)]
    if kind == "orthogonal":  # radii 4 and 3, centers 5 apart
        return [host, _disk(moved(r * 5 / 4), k * 4 / 3, floaty)]
    if kind == "overlapping":
        return [host, _disk(moved(r), k, floaty)]
    if kind == "past":  # two past-directed balls, which classify_pair refuses
        far = _disk(moved(3 * r), k, floaty)
        return [Ball(tuple(-x for x in host.v)), Ball(tuple(-x for x in far.v))]
    if kind == "large":  # a float pair beyond the refusal scale
        tenth = Fraction(1, 10)
        return [_disk((t, 2 * t), 10**6, floaty) for t in (tenth, 3 * tenth)]
    if kind == "huge":  # an exact coordinate beyond float range
        return [ball_from_geometry(2, center=(0, 0), curvature=Fraction(10**400))]
    if kind == "infinite":  # an exact coordinate whose float() is inf
        return [ball_from_geometry(2, center=(0, 0), curvature=QuadScalar(0, 3 * 10**308, 2))]
    raise AssertionError(kind)


@st.composite
def ball_lists(draw):
    solid, initial, depth = draw(st.sampled_from(SEEDS))
    mode = draw(st.sampled_from(["exact", "float"]))
    entries = cluster_balls(solid, initial, depth, mode)
    # fresh row-born balls from the document, whose vectors nothing has read
    pool = cluster_document(solid, initial, depth, mode).balls() if draw(st.booleans()) else entries
    idx = draw(st.lists(st.integers(0, len(pool) - 1), max_size=20, unique=True))
    balls = [pool[i] for i in idx]
    disks = [b for b in entries if scalar_sign(b.curvature) > 0]
    for kind in draw(st.lists(st.sampled_from(PLANTS), max_size=3)):
        for b in planted(kind, draw(st.sampled_from(disks)), mode == "float"):
            balls.insert(draw(st.integers(0, len(balls))), b)
    return balls


def outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except (ValueError, OverflowError, TypeError) as err:
        return "raised", type(err).__name__, str(err)


def all_pairs_overlap(balls):
    """first_overlap by the loop over every pair."""
    for i, j in combinations(range(len(balls)), 2):
        c = classify_pair(balls[i], balls[j])
        if c not in (EXTERNALLY_TANGENT, DISJOINT):
            return i, j, c
    return None


def all_pairs_cliques(balls, size: int) -> list:
    """_tangent_cliques by the loop over every pair: the first TANGENT_TUPLES
    mutually tangent tuples, in lexicographic order."""
    m = min(len(balls), TANGENT_NODES)
    tangent = {
        (i, j) for i, j in combinations(range(m), 2)
        if classify_pair(balls[i], balls[j]) == EXTERNALLY_TANGENT
    }
    cliques = (t for t in combinations(range(m), size) if set(combinations(t, 2)) <= tangent)
    return [t for _, t in zip(range(TANGENT_TUPLES), cliques)]


def assert_screen_changes_nothing(balls):
    assert outcome(first_overlap, balls) == outcome(all_pairs_overlap, balls)
    assert outcome(_tangent_cliques, balls, 4) == outcome(all_pairs_cliques, balls, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no float overflow or NaN warnings either
        kept = list(pair_screen(balls))
    assert kept == sorted(set(kept)) and all(i < j for i, j in kept)
    skipped = set(combinations(range(len(balls)), 2)) - set(kept)
    assert all(classify_pair(balls[i], balls[j]) == DISJOINT for i, j in skipped)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ball_lists())
def test_the_screen_matches_the_all_pairs_loop(balls):
    assert_screen_changes_nothing(balls)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ball_lists())
def test_row_born_balls_screen_as_their_scalar_copies(balls):
    # on a list of one kind the screen reads the same floats from a row as
    # from the scalar vector; on any other list both yield every pair
    copies = [Ball(b.v) for b in balls]
    assert list(pair_screen(balls)) == list(pair_screen(copies))


@pytest.mark.parametrize("solid,initial,depth", SEEDS)
def test_a_document_ball_is_born_with_the_row_of_its_vector(solid, initial, depth):
    # rows are canonical, so classify_pair's EQUAL by rows is EQUAL by vectors
    entries = cluster(solid, initial, depth, "exact")
    balls = cluster_document(solid, initial, depth, "exact").balls()
    assert len(balls) == len(entries)
    for b, e in zip(balls, entries):
        assert b._row == row_of(e.ball)
        assert b.dimension == e.ball.dimension and b.v == e.inversive


def test_the_packing_check_derives_no_row_and_builds_no_vector(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    argv = ["cluster", "--solid", "tetrahedron", "--initial=-3,5,8", "--depth", "4"]
    assert main([*argv, "--out", str(path)]) == 0
    doc = cli._read_doc(str(path))
    monkeypatch.setattr(cli, "_read_doc", lambda _: doc)  # loading parses rows
    calls = []
    for module in [m for name, m in sys.modules.items() if name.startswith("ballpack")]:
        for name in ("exact_row", "row_vector"):
            if hasattr(module, name):
                real = getattr(module, name)
                spy = lambda *args, real=real, name=name: calls.append(name) or real(*args)  # noqa: E731
                monkeypatch.setattr(module, name, spy)
    assert main(["verify", "--in", str(path), "--checks", "packing"]) == 0
    assert calls == []


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("kind", PLANTS)
def test_each_planted_pair_matches_the_all_pairs_loop(kind, mode):
    pool = cluster_balls(*SEEDS[2], mode)
    host = next(b for b in pool if scalar_sign(b.curvature) > 0)
    assert_screen_changes_nothing([host, *planted(kind, host, mode == "float")])


def test_the_screen_leaves_about_three_pairs_per_ball():
    for mode in ("exact", "float"):
        balls = cluster_balls("octahedron", "-2,4,5", 2, mode)
        assert len(list(pair_screen(balls))) <= 3 * len(balls)


def test_pairs_of_unmixable_kinds_reach_classify_pair():
    # disjoint disks in Q(sqrt2), Q(sqrt5) and floats: products between them
    # raise, so the screen must leave their pairs to classify_pair
    q2 = ball_from_geometry(2, center=(0, 0), curvature=sqrt_int(2))
    q5 = ball_from_geometry(2, center=(10, 0), curvature=phi())
    flt = ball_from_geometry(2, center=(-10.0, 0.0), curvature=1.0)
    for balls in ([q2, q5], [q2, flt], [flt, q5]):
        assert list(pair_screen(balls)) == [(0, 1)]
        assert outcome(first_overlap, balls)[0] == "raised"
        assert outcome(first_overlap, balls) == outcome(all_pairs_overlap, balls)


def test_a_pair_classify_pair_calls_equal_is_never_skipped():
    # off the unit shell Lorentz products of equal vectors fall below -1
    v = Ball((0.0, 0.0, 0.0, 2.0), _checked=True)
    assert list(pair_screen([v, Ball(v.v, _checked=True)])) == [(0, 1)]
    assert first_overlap([v, v]) == (0, 1, "equal")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_classified_pairs_are_the_screened_pairs_classified(mode):
    balls = cluster_balls("octahedron", "-2,4,5", 2, mode)
    want = [(i, j, classify_pair(balls[i], balls[j])) for i, j in pair_screen(balls)]
    assert list(classified_pairs(balls)) == want


def test_the_command_line_classifies_pairs_only_through_classified_pairs():
    source = inspect.getsource(cli)
    assert "pair_screen" not in source and "classify_pair(" not in source
