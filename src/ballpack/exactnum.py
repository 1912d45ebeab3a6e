"""Exact arithmetic in real quadratic fields Q(sqrt(m)).

A :class:`QuadScalar` stores a + b*sqrt(m) with rational a, b.  Values with
b == 0 are field-agnostic (m is ``None``) and combine freely with values from
any concrete field; two concrete fields are refused (:func:`one_field`).

Floats never silently mix with exact values: arithmetic between a QuadScalar
and a float raises TypeError, so a computation is either exact end to end or
explicitly converted with :func:`approx`.
Whether a value equals a target is decided in one place, :func:`compare`.

This module also owns the exact row form that the cluster engine and the
documents share.  A scalar travels as its parts (pa, qa, pb, qb, m), the value
pa/qa + (pb/qb) sqrt(m) with qa, qb nonzero and m = 0 when it is rational
(:func:`scalar_parts`, :func:`quad_value`).  A vector travels as one row
(A + B sqrt m) * num/den: A and B a primitive integer vector (the gcd of all
their entries is 1), num/den > 0 in lowest terms or 0/1 for a zero row, and
m one int, 0 when B is zero (:func:`exact_row`, :func:`row_vector`; a
document's vectors take :func:`exact_rows`, the same rows as arrays); a
vector in two fields has no row.  The row of a vector is unique, so two rows
are equal exactly when their vectors are.  Sums and products of rows stay
integer pairs X + Y sqrt m, :func:`quad_sign` reads their exact sign, and
:func:`scaled_row` puts a vector of such pairs back into row form.  A float
vector takes the same row arithmetic as the row (v, 0, 1.0, 1.0, 0)
(:func:`float_row`), whose signs :func:`quad_sign` reads through
:func:`compare`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Callable, Optional, Union

import numpy as np

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QuadScalar"]

# Ring tags accepted by is_ring_integer.
RING_Z = "Z"
RING_Z_SQRT2 = "Z[sqrt2]"
RING_Z_PHI = "Z[phi]"

# Relative tolerance of every float comparison (see compare).  The worst float
# cluster measured, the icosahedron at depth 3 (generator entries up to 3.4e5),
# leaves its rows off the unit shell by 2.4e-11 of sum x_i^2.
FLOAT_REL = 1e-10


@lru_cache(maxsize=1024)
def _square_part(n: int) -> tuple:
    """(k, m) with n = k^2 * m and m square-free, for an integer n >= 1."""
    k, m, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            k *= d
        if n % d == 0:
            n //= d
            m *= d
        d += 1
    return k, m * n


def one_field(*moduli) -> int:
    """The one field modulus among ``moduli`` (0 or None for Q), 0 if none;
    two fields are refused, the first operand's named first."""
    m = 0
    for f in moduli:
        if f and f != m:
            if m:
                raise ValueError(f"cannot mix fields Q(sqrt {m}) and Q(sqrt {f})")
            m = f
    return m


def field_modulus(m: int) -> int:
    """m, checked to be the modulus of a real quadratic field Q(sqrt m)."""
    if m <= 1 or _square_part(m)[0] != 1:
        raise ValueError(f"m must be a square-free integer > 1, got {m}")
    return m


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


@total_ordering
class QuadScalar:
    """An element a + b*sqrt(m) of a real quadratic field, exactly."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, m: Optional[int] = None):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            m = None
        else:
            if m is None:
                raise ValueError("irrational part requires a field modulus m")
            field_modulus(m)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("QuadScalar is immutable")

    # -- field bookkeeping -------------------------------------------------

    def _join(self, other: "QuadScalar") -> Optional[int]:
        if self.m is None:
            return other.m
        if other.m is None or other.m == self.m:
            return self.m
        return one_field(self.m, other.m)  # two fields: refused

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> Optional["QuadScalar"]:
        if isinstance(x, QuadScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadScalar(x)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadScalar(self.a + o.a, self.b + o.b, self._join(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.m)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadScalar(self.a - o.a, self.b - o.b, self._join(o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self._join(o)
        a = self.a * o.a + (self.b * o.b * m if m is not None else 0)
        b = self.a * o.b + self.b * o.a
        return QuadScalar(a, b, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.a == 0 and o.b == 0:
            raise ZeroDivisionError("division by zero QuadScalar")
        m = self._join(o)
        if o.b == 0:
            return QuadScalar(self.a / o.a, self.b / o.a, m)
        # (a + b sqrt m) / (c + d sqrt m) = ((ac - bdm) + (bc - ad) sqrt m) / (c^2 - d^2 m)
        a, b, c, d = self.a, self.b, o.a, o.b
        norm = c * c - d * d * m
        return QuadScalar((a * c - b * d * m) / norm, (b * c - a * d) / norm, m)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (QuadScalar(1) / self) ** (-n)
        out = QuadScalar(1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparison --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign (-1, 0, +1) of a + b*sqrt(m)."""
        a, b = self.a, self.b
        return quad_sign(a.numerator * b.denominator, b.numerator * a.denominator, self.m)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.b != o.b:
            return False
        if self.b != 0 and self.m != o.m:
            return False
        return self.a == o.a

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- output ------------------------------------------------------------

    def __float__(self):
        if self.b == 0:
            return float(self.a)
        return float(self.a) + float(self.b) * math.sqrt(self.m)

    def __repr__(self):
        if self.b == 0:
            return f"QuadScalar({self.a})"
        return f"QuadScalar({self.a}, {self.b}, m={self.m})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}√{self.m}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}√{self.m}"


def phi() -> QuadScalar:
    """The golden ratio (1 + sqrt 5)/2 as an exact value in Q(sqrt 5)."""
    return QuadScalar(Fraction(1, 2), Fraction(1, 2), 5)


def sqrt_int(n: int) -> QuadScalar:
    """sqrt(n) of a nonnegative integer, as k*sqrt(m) with m square-free."""
    return sqrt_rational(n)


def approx(x) -> float:
    """Float image of any scalar (exact or already float)."""
    return float(x)


def compare(x, target=0, scale: Optional[Callable[[], float]] = None) -> int:
    """Sign (-1, 0 or 1) of x - target under the one tolerance policy.

    Exact operands give the exact sign.  A float difference counts as zero
    when |x - target| <= FLOAT_REL * max(1, scale()), where ``scale`` returns
    the size of the terms that produced x, e.g. sum |x_i y_i| for a Lorentz
    product x.y (the standard rounding bound of a dot product); without it
    the terms are taken to be of unit size.  ``scale`` is called only for
    floats, so the exact path computes none.  A NaN difference, or terms of
    infinite size, leave no sign to read and raise ValueError.
    """
    d = x if target == 0 else x - target
    if isinstance(d, float):
        tol = FLOAT_REL * max(1.0, scale() if scale else 1.0)
        if math.isnan(d) or math.isinf(tol):
            raise ValueError(f"cannot compare {x!r} with {target!r}: not finite")
        if abs(d) <= tol:
            return 0
    return scalar_sign(d)


def sqrt_if_expressible(x: ScalarLike, m: Optional[int] = None) -> Optional[QuadScalar]:
    """The nonnegative square root of x inside Q(sqrt m), if one exists.

    With m omitted, the value's own field is used (pure rationals get only
    rational roots).  Negative x raises; an inexpressible root returns None.
    """
    q = QuadScalar._coerce(x)
    if q is None:
        raise TypeError(f"expected an exact scalar, got {type(x).__name__}")
    if q.sign() < 0:
        raise ValueError("square root of a negative value")
    m = one_field(q.m, m) or None

    if q.b == 0:
        r = _rational_sqrt(q.a)
        if r is not None:
            return QuadScalar(r)
        if m is not None:
            # maybe x = (d*sqrt(m))^2
            d2 = q.a / m
            d = _rational_sqrt(d2)
            if d is not None:
                return QuadScalar(0, d, m)
        return None

    # q = a + b sqrt(m), b != 0: seek y = c + d sqrt(m), so
    # c^2 + d^2 m = a and 2 c d = b; c^2 solves t^2 - a t + b^2 m / 4 = 0.
    disc = q.a * q.a - q.b * q.b * m
    s = _rational_sqrt(disc)
    if s is None:
        return None
    for c2 in ((q.a + s) / 2, (q.a - s) / 2):
        c = _rational_sqrt(c2)
        if c is None or c == 0:
            continue
        d = q.b / (2 * c)
        y = QuadScalar(c, d, m)
        if y * y == q:
            return abs(y)
    return None


def sqrt_rational(x: RationalLike) -> QuadScalar:
    """Exact sqrt of a nonnegative rational as k*sqrt(m), m square-free.

    Unlike :func:`sqrt_if_expressible` this always succeeds (for x >= 0) by
    choosing the field: sqrt(p/q) = sqrt(p*q)/q and sqrt(n) = k*sqrt(m) with
    m the square-free part of n.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative value")
    if x == 0:
        return QuadScalar(0)
    k, m = _square_part(x.numerator * x.denominator)
    coeff = Fraction(k, x.denominator)
    if m == 1:
        return QuadScalar(coeff)
    return QuadScalar(0, coeff, m)


def is_float_data(values) -> bool:
    """True if any entry of the sequence is a float (float-mode data)."""
    return any(isinstance(x, float) for x in values)


def scalar_sign(x) -> int:
    """Exact sign for exact scalars; ordinary sign for floats."""
    if isinstance(x, QuadScalar):
        return x.sign()
    return (x > 0) - (x < 0)


def ratio(x, y):
    """Division that keeps exact operands exact (int/int would give float)."""
    if isinstance(x, (float, QuadScalar)) or isinstance(y, (float, QuadScalar)):
        return x / y
    return Fraction(x) / y


def exact_sqrt(x):
    """Square root: float in, float out; exact in, exact out (field may grow)."""
    if isinstance(x, float):
        return math.sqrt(x)
    if isinstance(x, QuadScalar) and not x.is_rational:
        r = sqrt_if_expressible(x)
        if r is None:
            raise ValueError(f"no exact square root of {x} in its field")
        return r
    a = x.a if isinstance(x, QuadScalar) else Fraction(x)
    return sqrt_rational(a)


def in_ring(ka, kb, num, den, m: int, ring: str):
    """Membership of (ka + kb sqrt m) num / den in Z, Z[sqrt2] or Z[phi], for
    ints (a bool) or int arrays (a bool array, elementwise):

        Z       : kb = 0 and den | ka num
        Z[sqrt2]: den | ka num and den | kb num          (m = 2)
        Z[phi]  : den | 2 kb num and den | (ka - kb) num (m = 5)

    since a + b sqrt5 = (a - b) + 2b phi.  In any other field m only
    rational integers are members."""
    if ring not in (RING_Z, RING_Z_SQRT2, RING_Z_PHI):
        raise ValueError(f"unknown ring {ring!r}")
    a, b = ka * num, kb * num
    if ring == RING_Z_SQRT2 and m == 2:
        return (a % den == 0) & (b % den == 0)
    if ring == RING_Z_PHI and m == 5:
        return (2 * b % den == 0) & ((a - b) % den == 0)
    return (kb == 0) & (a % den == 0)


def is_ring_integer(x: ScalarLike, ring: str) -> bool:
    """Membership of an exact scalar in Z, Z[sqrt2], or Z[phi]; a scalar of
    another quadratic field than the ring's is refused."""
    q = QuadScalar._coerce(x)
    if q is None:
        raise TypeError(f"expected an exact scalar, got {type(x).__name__}")
    if ring in (RING_Z_SQRT2, RING_Z_PHI):
        one_field(q.m, 2 if ring == RING_Z_SQRT2 else 5)
    a, b = q.a, q.b
    ka, kb = a.numerator * b.denominator, b.numerator * a.denominator
    return in_ring(ka, kb, 1, a.denominator * b.denominator, q.m or 0, ring)


# -- the exact row form ---------------------------------------------------------


def scalar_parts(x: ScalarLike) -> tuple:
    """(pa, qa, pb, qb, m) of an exact scalar, both fractions in lowest terms
    and m = 0 when it is rational."""
    if isinstance(x, QuadScalar):
        a, b = x.a, x.b
        return a.numerator, a.denominator, b.numerator, b.denominator, x.m or 0
    x = Fraction(x)
    return x.numerator, x.denominator, 0, 1, 0


def quad_value(parts, m: int):
    """The exact scalar of parts = (pa, qa, pb, qb) in Q(sqrt m), fractions
    not necessarily reduced: a Fraction, or a QuadScalar when pb != 0."""
    pa, qa, pb, qb = parts
    if pb:
        return QuadScalar(Fraction(pa, qa), Fraction(pb, qb), m)
    return Fraction(pa, qa)


def exact_row(values) -> tuple:
    """(A, B, num, den, m) of a vector of exact scalars.

    The vector is put over the lcm of its denominators, and :func:`scaled_row`
    pulls its content out as num/den, so A and B are lists of ints that form
    a primitive row.  m is the one field modulus of the irrational scalars
    (:func:`one_field`), 0 when B is zero.
    """
    parts = [scalar_parts(x) for x in values]
    m = one_field(*(x[4] for x in parts))
    lcm = math.lcm(*(x[1] for x in parts), *(x[3] for x in parts))
    a = [pa * (lcm // qa) for pa, qa, _, _, _ in parts]
    b = [pb * (lcm // qb) for _, _, pb, qb, _ in parts]
    return scaled_row(a, b, 1, lcm, m)


def exact_rows(parts, width: int) -> dict:
    """The :func:`exact_row` of each of n vectors at once, as a dict of
    arrays: "A" and "B" n x width object arrays of ints, "num" and "den" of
    length n.  ``parts`` holds the vectors' scalars as four flat sequences
    (pa, qa, pb, qb) in row-major order, qa and qb > 0; their one field is
    the caller's."""
    pa, qa, pb, qb = parts
    radical = any(pb)

    def columns(x) -> list:
        return [x[j::width] for j in range(width)]

    def over_lcm(p, q) -> np.ndarray:
        p, q = (np.array(x, dtype=object).reshape(-1, width) for x in (p, q))
        return p * (lcm[:, None] // q)

    lcm = np.array(list(map(math.lcm, *columns(qa), *(columns(qb) if radical else ()))), dtype=object)
    a = over_lcm(pa, qa)
    b = over_lcm(pb, qb) if radical else np.zeros(a.shape, dtype=object)
    c = np.array(list(map(math.gcd, *a.T.tolist(), *(b.T.tolist() if radical else ()))), dtype=object)
    g = np.gcd(c, lcm)
    big = np.flatnonzero(c > 1)  # the rows with a content to pull out; a zero row is 0/1
    a[big] //= c[big, None]
    b[big] //= c[big, None]
    return {"A": a, "B": b, "num": c // g, "den": lcm // g}


def scaled_row(A, B, num: int, den: int, m: int) -> tuple:
    """The :func:`exact_row` of the vector (A + B sqrt m) * num/den, for int
    lists A and B, an int num and a nonzero int den: the row arithmetic of
    the exact maps and balls ends here, without a scalar in between."""
    c = math.gcd(*A, *B)
    if not c or not num:
        return [0] * len(A), [0] * len(B), 0, 1, 0
    if (num < 0) != (den < 0):
        c = -c
    num, den = abs(num * c), abs(den)
    g = math.gcd(num, den)
    return [x // c for x in A], [x // c for x in B], num // g, den // g, m if any(B) else 0


def row_vector(A, B, num: int, den: int, m: int) -> tuple:
    """The exact scalars of the row (A + B sqrt m) * num/den, from python ints."""
    return tuple(quad_value((a * num, den, b * num, den), m) for a, b in zip(A, B))


def quad_float(x, root: float) -> float:
    """float(x) for parts x = (pa, qa, pb, qb) and root = sqrt(m), as
    ``QuadScalar.__float__`` computes it, also from unreduced fractions:
    int division is correctly rounded, and a zero pb adds 0.0.  The parts may
    be ints or object arrays of ints, for a whole column of scalars.  The one
    row-to-float conversion."""
    pa, qa, pb, qb = x
    return pa / qa + (pb / qb) * root


def float_row(values) -> tuple:
    """The row (v, 0, 1.0, 1.0, 0) in which a float vector takes the row
    kernels: B zero, scale one, float entries.  An exact entry is rounded."""
    v = [float(x) for x in values]
    return v, [0.0] * len(v), 1.0, 1.0, 0


def quad_sign(a: int, b: int, m: int, scale: Optional[Callable[[], float]] = None) -> int:
    """Exact sign of a + b sqrt(m) for ints a, b, and m square-free > 1 (or
    any m when b = 0).  A float a, from a :func:`float_row` (b = 0), is
    compared with 0 by :func:`compare`, its terms of size ``scale()``."""
    if isinstance(a, float):
        return compare(a, 0, scale)
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > b * b * m else sb  # a^2 = b^2 m has no solution with b != 0
