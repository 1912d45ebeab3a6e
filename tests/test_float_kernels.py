"""The row kernels in float mode, against the same kernels in exact mode.

Each Mobius operation of `lorentz` and `polytopes` has one kernel, which
exact data takes on integer rows and float data on the rows (v, 0, 1.0,
1.0, 0).  On the balls, dual balls and generators of the five Platonic
README seeds, the float output on rounded input must lie within a stated
bound of the rounded exact output.  Every bound is EPS = 1e-13 times the
size that the rounding of the input and of the kernel's terms can reach:

* an inversion I - 2 x xT Q: max(1, |x|inf)^2;
* a reflection I - 2 n nT Q / <n, n>, n = x - t: (T / <n, n>)^2, with
  T = sum (|x_i| + |t_i|)^2 the size of the terms of <n, n>;
* an image M b: S = max(1, max_i sum_k |M_ik b_k|), the size of the terms
  of each coordinate;
* a light-source ball (u, 1)/s, s^2 = |u|^2 - 1: |x|inf |u|^2 / (|u|^2 - 1);
* a polar vertex: max(1, |v|inf);

and the involution test gives the exact verdict.  The largest ratio of
error to size measured on these inputs is below 1e-14.  Float seeds are
checked too: c times each solid's own anchor curvatures, c = 1, 2, 1/3,
used to be refused in float mode when the seed's light-like vector lay on
the probe's ray.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ballpack.apollonian import (
    _is_involution,
    apollonian_group_from_packing,
    packing_from_curvatures,
)
from ballpack.exactnum import approx, phi
from ballpack.lorentz import (
    MobiusMap,
    apply_map,
    inversion_map,
    light_source_balls,
    lorentz_product,
    reflection_map,
)
from ballpack.packings import project
from ballpack.polytopes import PLATONIC, Polytope, face_cycle, polar_dual, regular_edge_scribed

EPS = 1e-13
PHI = phi()
README_TRIPLES = ((-3, 5, 8), (-2, 4, 5), (5, -3, 12), (-4, 8, 9), (1 + PHI, -1, 2 * PHI))


@functools.lru_cache(maxsize=None)
def seed(i: int):
    """(balls and dual balls, generator maps) of the i-th README seed."""
    arr = packing_from_curvatures(PLATONIC[i], README_TRIPLES[i])
    return arr.balls + arr.dual_balls, apollonian_group_from_packing(arr).maps


def rounded(m: MobiusMap) -> MobiusMap:
    return MobiusMap([[approx(x) for x in r] for r in m.mat], check=False)


def entries(m: MobiusMap) -> list:
    return [x for r in m.mat for x in r]


def error(got, want) -> float:
    return max(abs(a - approx(b)) for a, b in zip(got, want, strict=True))


@st.composite
def balls(draw, count=1):
    i = draw(st.integers(0, len(PLATONIC) - 1))
    pool = seed(i)[0]
    return i, tuple(pool[draw(st.integers(0, len(pool) - 1))] for _ in range(count))


@st.composite
def maps_and_balls(draw):
    i, (b,) = draw(balls())
    gens = seed(i)[1]
    return gens[draw(st.integers(0, len(gens) - 1))], b


@settings(max_examples=80, deadline=None)
@given(balls())
def test_a_float_inversion_is_the_exact_one_rounded(drawn):
    _, (b,) = drawn
    x = b.approx().v
    size = max(1.0, *map(abs, x)) ** 2
    assert error(entries(inversion_map(b.approx())), entries(inversion_map(b))) <= EPS * size


@settings(max_examples=80, deadline=None)
@given(balls(count=2))
def test_a_float_reflection_is_the_exact_one_rounded(drawn):
    _, (x, t) = drawn
    xf, tf = x.approx().v, t.approx().v
    terms = sum((abs(a) + abs(b)) ** 2 for a, b in zip(xf, tf))
    want = reflection_map(tuple(a - b for a, b in zip(x.v, t.v)))
    got = reflection_map(tuple(a - b for a, b in zip(xf, tf)), lambda: terms)
    assert (got is None) == (want is None)
    if want is not None:
        nn = approx(lorentz_product(*(tuple(a - b for a, b in zip(x.v, t.v)),) * 2))
        assert error(entries(got), entries(want)) <= EPS * (terms / nn) ** 2


@settings(max_examples=80, deadline=None)
@given(maps_and_balls())
def test_a_float_image_is_the_exact_one_rounded(drawn):
    m, b = drawn
    mf, bf = rounded(m), b.approx()
    size = max(1.0, *(sum(abs(x * y) for x, y in zip(r, bf.v)) for r in mf.mat))
    assert error(apply_map(mf, bf).v, apply_map(m, b).v) <= EPS * size


@settings(max_examples=80, deadline=None)
@given(balls())
def test_a_float_light_source_ball_is_the_exact_one_rounded(drawn):
    _, (b,) = drawn
    if b.v[-1] <= 0:  # no light source: the ball is past-directed or a half-space
        return
    u = tuple(x / b.v[-1] for x in b.v[:-1])
    uf = tuple(map(approx, u))
    u2 = sum(x * x for x in uf)
    assert light_source_balls([u]) == (b,)
    (got,) = light_source_balls([uf])
    assert error(got.v, b.v) <= EPS * max(map(abs, b.approx().v)) * u2 / (u2 - 1)


@pytest.mark.parametrize("solid", PLATONIC, ids=str)
def test_float_polar_vertices_are_the_exact_ones_rounded(solid):
    p = regular_edge_scribed(solid)
    pf = Polytope(tuple(tuple(map(approx, v)) for v in p.vertices), p.faces_by_rank)
    for got, want in zip(polar_dual(pf).vertices, polar_dual(p).vertices, strict=True):
        assert error(got, want) <= EPS * max(1.0, *map(abs, got))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(PLATONIC) - 1), st.data())
def test_a_float_involution_test_gives_the_exact_verdict(i, data):
    gens = seed(i)[1]
    pick = st.integers(0, len(gens) - 1)
    m = gens[data.draw(pick)]
    if data.draw(st.booleans()):
        m = m @ gens[data.draw(pick)]
    assert _is_involution(rounded(m)) == _is_involution(m)


def scaled_anchor_triples():
    for s in PLATONIC:
        poly = regular_edge_scribed(s)
        arr = project(poly)
        ks = [arr.balls[v].curvature for v in face_cycle(poly, poly.faces(2)[0])[:3]]
        for c in (1, 2, Fraction(1, 3)):
            yield s, tuple(c * k for k in ks)


@pytest.mark.parametrize("solid, triple", scaled_anchor_triples(), ids=str)
def test_float_seeds_on_the_probe_ray_build_and_match_the_exact_seed(solid, triple):
    # c times the projection's own anchor curvatures puts y on the probe's
    # ray; a float h = <y, probe> of 1e-16 once took the reflection branch,
    # whose mirror has norm about -2h, and the seed was refused
    want = packing_from_curvatures(solid, triple)
    got = packing_from_curvatures(solid, tuple(map(approx, triple)))
    pairs = zip(got.balls + got.dual_balls, want.balls + want.dual_balls, strict=True)
    for a, b in pairs:
        assert error(a.v, b.v) <= EPS * max(1.0, *map(abs, a.v))
