import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ballpack.exactnum import (
    FLOAT_REL,
    RING_Z,
    RING_Z_PHI,
    RING_Z_SQRT2,
    QuadScalar,
    approx,
    compare,
    is_ring_integer,
    phi,
    sqrt_if_expressible,
    sqrt_int,
    sqrt_rational,
)

SQRT2 = sqrt_int(2)
SQRT5 = sqrt_int(5)
PHI = phi()

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def quads(m):
    return st.builds(lambda a, b: QuadScalar(a, b, m), rationals, rationals)


def test_defining_relations():
    assert SQRT2 * SQRT2 == 2
    assert SQRT5 * SQRT5 == 5
    one_plus = QuadScalar(1, 1, 5)
    assert one_plus * one_plus == QuadScalar(6, 2, 5)
    assert PHI * PHI == PHI + 1


def test_identity_and_rational_mixing():
    x = QuadScalar(Fraction(3, 7), Fraction(-2, 5), 2)
    assert x * 1 == x
    assert x + 0 == x
    assert (x * 2) / 2 == x
    assert 1 - x == QuadScalar(Fraction(4, 7), Fraction(2, 5), 2)


def test_field_mixing_rejected():
    with pytest.raises(ValueError):
        _ = SQRT2 + SQRT5
    with pytest.raises(ValueError):
        _ = SQRT2 * SQRT5


def test_float_mixing_rejected():
    with pytest.raises(TypeError):
        _ = SQRT2 + 0.5
    with pytest.raises(TypeError):
        _ = 0.5 * SQRT2


def test_division():
    x = QuadScalar(1, 1, 5)
    assert x / x == 1
    assert 1 / PHI == PHI - 1
    with pytest.raises(ZeroDivisionError):
        _ = x / QuadScalar(0)


def test_comparisons_exact():
    # sqrt2 < 1.5 < phi ... done exactly
    assert SQRT2 < Fraction(3, 2)
    assert QuadScalar(Fraction(3, 2)) < PHI
    assert PHI < SQRT5
    assert abs(QuadScalar(0, -1, 2)) == SQRT2
    assert (PHI - PHI).sign() == 0


def test_sqrt_examples():
    assert sqrt_if_expressible(QuadScalar(4), m=2) == 2
    assert sqrt_if_expressible(QuadScalar(6, 2, 5)) == QuadScalar(1, 1, 5)
    assert sqrt_if_expressible(QuadScalar(3), m=2) is None
    assert sqrt_if_expressible(QuadScalar(2), m=2) == SQRT2
    assert sqrt_if_expressible(QuadScalar(0)) == 0
    with pytest.raises(ValueError):
        sqrt_if_expressible(QuadScalar(-1))


def test_sqrt_of_phi_powers():
    # phi^2 = phi + 1 and phi^4 both have roots in Q(sqrt5)
    assert sqrt_if_expressible(PHI * PHI) == PHI
    assert sqrt_if_expressible(PHI ** 4) == PHI * PHI


def test_ring_membership():
    assert is_ring_integer(QuadScalar(3, 0, None), RING_Z)
    assert not is_ring_integer(Fraction(1, 2), RING_Z)
    assert is_ring_integer(PHI, RING_Z_PHI)
    assert is_ring_integer(QuadScalar(2, -3, 5), RING_Z_PHI)
    assert not is_ring_integer(QuadScalar(Fraction(1, 2), 0, None), RING_Z_SQRT2)
    assert is_ring_integer(QuadScalar(7, -2, 2), RING_Z_SQRT2)
    assert not is_ring_integer(QuadScalar(Fraction(1, 2), Fraction(1, 3), 5), RING_Z_PHI)
    with pytest.raises(ValueError):
        is_ring_integer(SQRT2, RING_Z_PHI)


def test_approx():
    assert approx(QuadScalar(0, 1, 2)) == pytest.approx(math.sqrt(2), abs=1e-15)
    assert approx(QuadScalar(1, 1, 5)) == pytest.approx(1 + math.sqrt(5), abs=1e-15)
    assert approx(QuadScalar(7)) == 7.0
    assert approx(0.25) == 0.25


@given(quads(2), quads(2), quads(2))
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(quads(5))
def test_sqrt_roundtrip(y):
    assert sqrt_if_expressible(y * y, m=5) == abs(y)


@given(quads(3), quads(3))
def test_division_inverts_multiplication(x, y):
    if y != 0:
        assert (x * y) / y == x


@given(quads(2))
@example(QuadScalar(Fraction(148, 3), -35, 2))  # x ~ 0.164: a + b sqrt2 cancels
def test_approx_homomorphism(x):
    # approx rounds a, b and sqrt m, so its error scales with |a| + |b| sqrt m,
    # not with |x|, which cancellation can make far smaller
    fx = approx(x)
    size = abs(approx(x.a)) + abs(approx(x.b)) * math.sqrt(2)
    assert approx(x + x) == pytest.approx(2 * fx, rel=1e-12, abs=1e-12)
    assert abs(approx(x * x) - fx * fx) <= 16 * 2.0**-53 * size**2


@given(quads(5), quads(5))
def test_sign_consistent_with_float(x, y):
    d = (x - y).sign()
    fd = approx(x) - approx(y)
    if abs(fd) > 1e-9:
        assert d == (1 if fd > 0 else -1)


def test_sqrt_int_and_sqrt_rational_take_out_the_square_part():
    assert sqrt_int(12) == 2 * sqrt_int(3)
    assert sqrt_int(9) == 3 and sqrt_int(0) == 0
    assert sqrt_rational(Fraction(8, 3)) == QuadScalar(0, Fraction(2, 3), 6)
    with pytest.raises(ValueError, match="square-free"):
        QuadScalar(1, 1, 12)


def _no_scale():
    raise AssertionError("the exact path must compute no scale")


def test_compare_is_exact_on_exact_values():
    tiny = Fraction(1, 10**30)
    assert compare(1 + tiny, 1, _no_scale) == 1
    assert compare(QuadScalar(-1, tiny, 2), -1, _no_scale) == 1
    assert compare(SQRT2 * SQRT2, 2, _no_scale) == 0
    assert compare(Fraction(-1, 3), 0, _no_scale) == -1


def test_compare_scales_the_float_tolerance_with_the_terms():
    assert compare(1.0 + 0.5 * FLOAT_REL, 1) == 0
    assert compare(1.0 + 2 * FLOAT_REL, 1) == 1
    assert compare(-1.0 - 2 * FLOAT_REL, -1) == -1
    # the same absolute error is rounding when the terms were 1e6 in size
    assert compare(1.0 + 2 * FLOAT_REL, 1, lambda: 1e6) == 0
    assert compare(1.0 + 1e-3, 1, lambda: 1e6) == 1


@pytest.mark.parametrize(
    "x,target",
    [(math.nan, 0), (math.nan, 1), (math.inf, math.inf), (-math.inf, -math.inf)],
)
def test_compare_refuses_a_nan_difference(x, target):
    with pytest.raises(ValueError, match="not finite"):
        compare(x, target)


def test_compare_refuses_terms_of_infinite_size():
    with pytest.raises(ValueError, match="not finite"):
        compare(math.inf, 1, lambda: math.inf)
    assert compare(math.inf, 1) == 1
