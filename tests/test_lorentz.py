import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from frame_oracle import light_source
from ballpack import linalg
from ballpack.exactnum import QuadScalar, sqrt_int
from ballpack.lorentz import (
    Ball,
    MobiusMap,
    apply_map,
    ball_from_geometry,
    classify_pair,
    curvature,
    geometry_from_ball,
    inversion_map,
    light_source_balls,
    lorentz_product,
)

UNIT_DISK = Ball((0, 0, -1, 0))
HALF_X_POS = Ball((1, 0, 0, 0))  # {x >= 0}
HALF_Y_GE_1 = Ball((0, 1, 1, 1))  # {y >= 1}
HALF_Y_LE_M1 = Ball((0, -1, 1, 1))  # {y <= -1}

S_STAR = (
    (1, 0, 0, 0),
    (0, -1, -2, 2),
    (0, -2, -1, 2),
    (0, -2, -2, 3),
)


def test_lorentz_product_examples():
    assert lorentz_product((0, 0, 1, 1), (0, 0, 1, 1)) == 0
    assert lorentz_product((0, 0, -1, 0), (2, 0, 1, 2)) == -1
    assert lorentz_product(UNIT_DISK.v, UNIT_DISK.v) == 1
    with pytest.raises(ValueError):
        lorentz_product((1, 0, 0), (1, 0, 0, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ball_refuses_a_non_finite_coordinate(bad):
    with pytest.raises(ValueError):
        Ball((bad, 0, 0, 1.0))
    with pytest.raises(ValueError):
        Ball((0.0, 0.0, bad, bad))


def test_ball_from_geometry_spheres():
    assert ball_from_geometry(2, center=(0, 0), curvature=1) == UNIT_DISK
    assert ball_from_geometry(2, center=(2, 0), curvature=1) == Ball((2, 0, 1, 2))
    # exactness: integer data stays rational
    b = ball_from_geometry(2, center=(Fraction(1, 2), 0), curvature=2)
    assert b == Ball((1, 0, -1, 1))
    assert all(not isinstance(x, float) for x in b.v)


def test_ball_from_geometry_halfspaces():
    lam = Fraction(3, 2)
    b = ball_from_geometry(2, normal=(0, 1), offset=lam)
    assert b.v == (0, 1, lam, lam)
    with pytest.raises(ValueError):
        ball_from_geometry(2, center=(0, 0), curvature=0)
    with pytest.raises(ValueError):
        ball_from_geometry(2, normal=(0, 2), offset=0)


def test_curvature_examples():
    assert UNIT_DISK.curvature == 1
    assert Ball((0, 1, 5, 5)).curvature == 0
    assert Ball((2, 0, 1, 2)).curvature == 1
    assert curvature((0, 0, 1, 1)) == 0


def test_geometry_roundtrip():
    g = geometry_from_ball(Ball((2, 0, 1, 2)))
    assert g.kind == "sphere"
    assert g.center == (2, 0)
    assert g.radius == 1
    assert g.orientation == 1
    g2 = geometry_from_ball(HALF_Y_GE_1)
    assert g2.kind == "halfspace"
    assert g2.normal == (0, 1)
    assert g2.offset == 1
    # negative curvature: complement of a disk
    g3 = geometry_from_ball(Ball((0, 0, 1, 0)))
    assert g3.orientation == -1 and g3.radius == 1


def test_classify_pairs():
    two_right = ball_from_geometry(2, center=(2, 0), curvature=1)
    assert classify_pair(UNIT_DISK, two_right) == "externally_tangent"
    assert classify_pair(HALF_Y_GE_1, HALF_Y_LE_M1) == "externally_tangent"
    assert classify_pair(UNIT_DISK, UNIT_DISK) == "equal"
    assert classify_pair(UNIT_DISK, HALF_X_POS) == "orthogonal"
    far = ball_from_geometry(2, center=(4, 0), curvature=1)
    assert classify_pair(UNIT_DISK, far) == "disjoint"
    inner = ball_from_geometry(2, center=(0, 0), curvature=2)
    assert classify_pair(UNIT_DISK, inner) == "nested"
    shifted = ball_from_geometry(2, center=(1, 0), curvature=1)
    assert classify_pair(UNIT_DISK, shifted) == "overlapping"
    kiss = ball_from_geometry(2, center=(Fraction(1, 2), 0), curvature=2)
    assert classify_pair(UNIT_DISK, kiss) == "internally_tangent"


def test_classify_refuses_past_directed_pair():
    past1 = Ball((0, 1, -1, -1))
    past2 = Ball((0, -1, -1, -1))
    with pytest.raises(ValueError):
        classify_pair(past1, past2)
    # one past-directed is fine
    assert classify_pair(past1, UNIT_DISK) is not None


def test_inversion_map_halfplane():
    assert inversion_map(HALF_X_POS).mat == linalg.mat(
        [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert inversion_map(HALF_Y_GE_1).mat == linalg.mat(S_STAR)


def test_inversion_map_unit_circle():
    m = inversion_map(UNIT_DISK)
    assert m.mat == linalg.mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
    src = ball_from_geometry(2, center=(2, 0), curvature=1)
    img = apply_map(m, src)
    g = geometry_from_ball(img)
    assert g.center == (Fraction(2, 3), 0)
    assert g.radius == Fraction(1, 3)


def test_apply_examples():
    ident = MobiusMap.identity(2)
    assert apply_map(ident, UNIT_DISK) == UNIT_DISK
    s = inversion_map(HALF_X_POS)
    lam = Fraction(7, 3)
    hs = ball_from_geometry(2, normal=(0, 1), offset=lam)
    assert apply_map(s, hs) == hs
    m = inversion_map(UNIT_DISK)
    out = apply_map(m, Ball((2, 0, 1, 2)))
    assert out == Ball((2, 0, -1, 2))
    assert out.curvature == 3


def test_mobius_map_invariants():
    balls = [
        UNIT_DISK,
        HALF_Y_GE_1,
        ball_from_geometry(2, center=(2, 0), curvature=1),
        ball_from_geometry(2, center=(Fraction(1, 3), Fraction(-1, 2)), curvature=3),
    ]
    for b in balls:
        m = inversion_map(b)
        MobiusMap(m.mat)  # re-validating constructor must accept
        assert (m @ m).mat == linalg.identity(4)
        # the boundary is fixed: b itself maps to its complement
        assert apply_map(m, b).v == tuple(-x for x in b.v)
        for b1 in balls:
            for b2 in balls:
                assert lorentz_product(
                    apply_map(m, b1).v, apply_map(m, b2).v
                ) == lorentz_product(b1.v, b2.v)


def test_conjugation_transports_inversions():
    r = inversion_map(UNIT_DISK)
    b = ball_from_geometry(2, center=(2, 0), curvature=1)
    lhs = (r @ inversion_map(b)) @ r
    rhs = inversion_map(apply_map(r, b))
    assert lhs.mat == rhs.mat


def test_mobius_map_rejects_bad_matrices():
    with pytest.raises(ValueError):
        MobiusMap([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    with pytest.raises(ValueError):
        # time-reversing diag(1,1,1,-1)
        MobiusMap([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])


def test_map_inverse():
    b = ball_from_geometry(2, center=(Fraction(1, 2), Fraction(1, 3)), curvature=4)
    m = inversion_map(HALF_Y_GE_1) @ inversion_map(b)
    assert (m @ m.inverse()).mat == linalg.identity(4)


def test_light_source_examples():
    sqrt3 = math.sqrt(3)
    b = light_source_balls([(0.0, 0.0, sqrt3)])[0]
    expect = (0.0, 0.0, sqrt3 / math.sqrt(2), 1.0 / math.sqrt(2))
    assert all(abs(x - y) < 1e-12 for x, y in zip(b.v, expect))
    u = light_source(b)
    assert all(abs(x - y) < 1e-12 for x, y in zip(u, (0, 0, sqrt3)))


def test_light_source_exact_tetrahedron_pair():
    bu = light_source_balls([(1, 1, 1)])[0]
    bv = light_source_balls([(1, -1, -1)])[0]
    assert lorentz_product(bu.v, bv.v) == -1
    assert classify_pair(bu, bv) == "externally_tangent"
    # entries live in Q(sqrt2)
    assert isinstance(bu.v[0], QuadScalar)
    assert light_source(bu) == (1, 1, 1)


def test_light_source_rejects_inner_points():
    with pytest.raises(ValueError):
        light_source_balls([(0.5, 0.0, 0.5)])[0]
    with pytest.raises(ValueError):
        light_source(Ball((0, 1, -1, -1)))


coords = st.floats(min_value=-3, max_value=3, allow_nan=False)


@given(st.tuples(coords, coords, coords), st.tuples(coords, coords, coords))
def test_light_source_product_law(u, v):
    nu = sum(x * x for x in u)
    nv = sum(x * x for x in v)
    if nu < 1.1 or nv < 1.1:
        return
    bu, bv = light_source_balls([u, v])
    dot = sum(x * y for x, y in zip(u, v))
    want = (dot - 1) / math.sqrt((nu - 1) * (nv - 1))
    assert lorentz_product(bu.v, bv.v) == pytest.approx(want, abs=1e-9)


def test_exact_sqrt_field_extension():
    # light source with rational norm 3/2: scale factor sqrt(1/2) lands in Q(sqrt2)
    half = Fraction(1, 2)
    (b,) = light_source_balls([(half, half, Fraction(1, 1))])
    assert lorentz_product(b.v, b.v) == 1
    assert isinstance(b.v[-1], QuadScalar) and b.v[-1].m == 2


def _disks_at_curvature(k, gap):
    """A disk of curvature k and a second one whose center is gap/k away."""
    c = (Fraction(1, 3), Fraction(1, 7))
    a = ball_from_geometry(2, center=c, curvature=k)
    return a, ball_from_geometry(2, center=(c[0] + Fraction(gap, k), c[1]), curvature=k)


@pytest.mark.parametrize("k", [10**4, 3 * 10**4])
def test_float_tangency_tolerance_scales_with_the_coordinates(k):
    # the float Lorentz product's terms are about k^2 / 2, so p + 1 rounds to
    # 4e-9 (k = 1e4) or -6e-8 (k = 3e4); an absolute tolerance of 1e-9
    # called these tangent pairs overlapping and disjoint
    a, b = _disks_at_curvature(k, 2)
    assert classify_pair(a, b) == "externally_tangent"
    assert lorentz_product(a.approx().v, b.approx().v) != -1
    assert classify_pair(a.approx(), b.approx()) == "externally_tangent"
    a, o = _disks_at_curvature(k, 1)
    assert classify_pair(a.approx(), o.approx()) == "overlapping"


def test_float_pairs_too_large_to_classify_are_refused():
    # at curvature 1e7 the window FLOAT_REL * sum |x_i y_i| is about 6e3,
    # wider than the gaps between -1, 0 and 1: no float answer is sound
    a, b = _disks_at_curvature(10**7, 2)
    a, o = _disks_at_curvature(10**7, 1)
    assert classify_pair(a.approx(), a.approx()) == "equal"
    for other in (b, o):
        with pytest.raises(ValueError, match="too large to classify"):
            classify_pair(a.approx(), other.approx())
    assert classify_pair(a, o) == "overlapping"


def test_float_checks_keep_their_teeth_at_unit_scale():
    with pytest.raises(ValueError, match="norm"):
        Ball((0.0, math.sqrt(1.001), 0.0, 0.0))
    assert Ball((0.0, 1.0 + 1e-12, 0.0, 0.0)).v[1] > 1
    # a unit disk centered at distance sqrt(4.002): p = -1.001 with UNIT_DISK
    far = ball_from_geometry(2, center=(math.sqrt(4.002), 0.0), curvature=1.0)
    assert lorentz_product(far.v, UNIT_DISK.v) == pytest.approx(-1.001)
    assert classify_pair(UNIT_DISK.approx(), far) == "disjoint"
    assert classify_pair(UNIT_DISK.approx(), UNIT_DISK.approx()) == "equal"


def test_float_elimination_scales_its_zero_test_with_the_entries():
    # the second row is sqrt(2) times the first; with entries near 1e6 the
    # elimination leaves a residue above 1e-10, which a unit-scale zero test
    # counted as a pivot, so the matrix passed for regular
    x = (123456.7, 765432.1, 333333.3)
    e2 = (0.0, 1.0, 0.0)
    with pytest.raises(linalg.SingularMatrix):
        linalg.solve((x, tuple(v * math.sqrt(2) for v in x), e2), (1.0, 1.0, 1.0))
    bent = tuple(v * math.sqrt(2) for v in x[:2]) + (x[2] * math.sqrt(2) + 1e-3,)
    assert len(linalg.solve((x, bent, e2), (1.0, 1.0, 1.0))) == 3
