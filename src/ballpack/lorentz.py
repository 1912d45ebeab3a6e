"""d-balls as normalized space-like vectors of (d+2)-dimensional Lorentz space.

The bilinear form is x.y = x_1 y_1 + ... + x_{d+1} y_{d+1} - x_{d+2} y_{d+2}.
A ball (disk, disk complement, or half-space of R^d + infinity) is a vector x
with x.x = 1; its curvature is -<e_{d+1}+e_{d+2}, x>.  Inversions in balls
generate the Mobius maps used everywhere else: s_b = I - 2 x xT Q.  An
:class:`Entry` is one ball of a cluster or a document: the vector plus the
word that produced it, with everything else derived from the vector.

All functions run in either exact mode (int/Fraction/QuadScalar entries) or
float mode; the two never mix inside one vector.  :func:`classify_pair`
decides an exact pair on the balls' ``exactnum`` rows: the Lorentz product
is two integers X + Y sqrt m over a positive integer, its exact sign
against -1, 0 and 1 is ``quad_sign`` of integers, a ball is past-directed
when its row's last integers are negative, and two balls are EQUAL when
their rows are.  Every other test of a Lorentz product x.y against -1, 0
or 1 goes through :func:`exactnum.compare`: exact in exact mode, and in
float mode within FLOAT_REL = 1e-10 times the size of its terms,
sum |x_i y_i|, which grows with the coordinates of deep balls.  Where that
window reaches 1/2, -1, 0 and 1 are no longer apart, and
:func:`classify_pair` refuses the float pair instead of guessing.

Light sources, maps, inversions and reflections are computed on rows,
one kernel each for both numeric modes: a light source's |u|^2 - 1 and its
square root, a map's image of a ball (a matrix-row product) and the matrix
I - 2 x xT Q (outer products).  Exact data takes them in python ints and
never passes through Fraction arithmetic; a float vector takes them as the
row (v, 0, 1.0, 1.0, 0) of :func:`exactnum.float_row`, and an operation
with one float operand takes every operand in floats.  Signs are read by
:func:`exactnum.quad_sign`, through ``compare`` for floats.  Only the last
step depends on the numeric type: exact results go through
``exactnum.scaled_row``, and the balls they and the documents make are born
with their rows (:func:`ball_from_row`), building their scalar vectors only
when read, so classifying two of them reads no scalar; float results are
divided out, and a float image is checked to lie on the unit shell.  Exact
data whose coordinates lie in two quadratic fields has no row: it is refused
where its row is made, or where two rows in different fields meet
(:func:`exactnum.one_field`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

from . import linalg
from .exactnum import (
    FLOAT_REL,
    QuadScalar,
    approx,
    compare,
    exact_row,
    exact_sqrt,
    float_row,
    is_float_data,
    one_field,
    quad_sign,
    quad_value,
    ratio,
    row_vector,
    scalar_parts,
    scalar_sign,
    scaled_row,
)

Scalar = Union[int, Fraction, QuadScalar, float]
LVector = tuple


def lorentz_product(x: LVector, y: LVector) -> Scalar:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    s = sum(a * b for a, b in zip(x[:-1], y[:-1]))
    return s - x[-1] * y[-1]


def product_scale(x: LVector, y: LVector) -> float:
    """sum |x_i y_i|: the size of the terms of the Lorentz product x.y."""
    return sum(abs(a * b) for a, b in zip(x, y))


def same_vector(u: LVector, v: LVector) -> bool:
    """Coordinatewise equality: exact, or for floats within
    FLOAT_REL * max(1, |u|inf, |v|inf) in every coordinate."""
    size = lambda: max(abs(x) for x in (*u, *v))
    return all(compare(x, y, size) == 0 for x, y in zip(u, v))


def curvature(x: LVector) -> Scalar:
    """Signed reciprocal radius, -<e_{d+1}+e_{d+2}, x> = x[-1] - x[-2]."""
    return x[-1] - x[-2]


def x_north(d: int, one=1, zero=0) -> LVector:
    """e_{d+1} + e_{d+2}: the vector whose pairing extracts curvature."""
    return tuple([zero] * d + [one, one])


class Ball:
    """A d-ball: a Lorentz vector of norm one.  An exact ball keeps its
    ``exactnum`` row once :func:`row_of` has made it; a ball born with it
    (:func:`ball_from_row`) builds its vector ``v`` when ``v`` is first read."""

    __slots__ = ("v", "_row")

    def __init__(self, v: Sequence[Scalar], _checked: bool = False):
        v = tuple(v)
        if not _checked:
            n = lorentz_product(v, v)
            if compare(n, 1, lambda: product_scale(v, v)) != 0:
                raise ValueError(f"vector has Lorentz norm {n}, not 1")
        object.__setattr__(self, "v", v)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Ball is immutable")

    def __getattr__(self, name):  # only for an unset slot: a row-born ball's vector
        if name != "v":
            raise AttributeError(name)
        object.__setattr__(self, "v", row_vector(*self._row))
        return self.v

    @property
    def dimension(self) -> int:
        row = getattr(self, "_row", None)
        return len(self.v if row is None else row[0]) - 2

    @property
    def curvature(self) -> Scalar:
        return curvature(self.v)

    def approx(self) -> "Ball":
        return Ball(tuple(approx(x) for x in self.v), _checked=True)

    def __eq__(self, other):
        return isinstance(other, Ball) and self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return f"Ball({list(self.v)!r})"


@dataclass(frozen=True)
class BallGeometry:
    """Euclidean description: a sphere (center/radius/orientation) or half-space."""

    kind: str  # "sphere" | "halfspace"
    center: Optional[tuple] = None
    radius: Optional[Scalar] = None
    orientation: int = 1  # -1 means the complement of the open ball
    normal: Optional[tuple] = None
    offset: Optional[Scalar] = None


def ball_from_geometry(
    d: int,
    center: Optional[Sequence[Scalar]] = None,
    curvature: Optional[Scalar] = None,
    normal: Optional[Sequence[Scalar]] = None,
    offset: Optional[Scalar] = None,
) -> Ball:
    """Inversive coordinates of a ball given its Euclidean description.

    Sphere form (center + nonzero curvature):
        (kappa/2) * (2c, |c|^2 - kappa^-2 - 1, |c|^2 - kappa^-2 + 1)
    Half-space form (unit normal + signed distance):  (n, delta, delta).
    """
    if center is not None:
        if curvature is None or scalar_sign(curvature) == 0:
            raise ValueError("center form requires nonzero curvature")
        if len(center) != d:
            raise ValueError(f"center must have {d} coordinates")
        c2 = sum(x * x for x in center)
        k2 = ratio(1, curvature * curvature)
        half_k = ratio(curvature, 2)
        v = tuple(curvature * x for x in center) + (
            half_k * (c2 - k2 - 1),
            half_k * (c2 - k2 + 1),
        )
        return Ball(v)
    if normal is None or offset is None:
        raise ValueError("need either center+curvature or normal+offset")
    if len(normal) != d:
        raise ValueError(f"normal must have {d} coordinates")
    if curvature is not None and scalar_sign(curvature) != 0:
        raise ValueError("half-space form requires zero curvature")
    if compare(sum(x * x for x in normal), 1) != 0:
        raise ValueError("normal must be a unit vector")
    return Ball(tuple(normal) + (offset, offset))


def geometry_from_ball(b: Ball) -> BallGeometry:
    d = b.dimension
    k = b.curvature
    if scalar_sign(k) == 0:
        return BallGeometry(kind="halfspace", normal=b.v[:d], offset=b.v[d])
    center = tuple(ratio(x, k) for x in b.v[:d])
    return BallGeometry(
        kind="sphere", center=center, radius=ratio(1, abs(k)), orientation=scalar_sign(k)
    )


@dataclass(frozen=True)
class Entry:
    """One ball of a cluster or a document: its inversive vector and the
    provenance of that vector (BFS depth, generator word, seed orbit).

    Clusters and documents keep their balls as integer (or float64) rows and
    build entries from them only on demand (``Cluster.entry``,
    ``PackingDocument.entries``).  The vector is the ball; its curvature and
    Euclidean geometry are derived from it on demand.  ``ball`` trusts the
    vector's norm: clusters make unit vectors, and a loaded document checks
    the norms of its rows once, in ``PackingDocument.balls``.
    """

    inversive: tuple
    depth: int = 0
    word: tuple = ()
    orbit: int = 0

    @property
    def ball(self) -> Ball:
        return Ball(self.inversive, _checked=True)

    @property
    def curvature(self) -> Scalar:
        return curvature(self.inversive)

    @property
    def geometry(self) -> BallGeometry:
        return geometry_from_ball(self.ball)


# -- pair classification -----------------------------------------------------

DISJOINT = "disjoint"
EXTERNALLY_TANGENT = "externally_tangent"
ORTHOGONAL = "orthogonal"
INTERNALLY_TANGENT = "internally_tangent"
NESTED = "nested"
OVERLAPPING = "overlapping"
EQUAL = "equal"


def _is_past_directed(b: Ball) -> bool:
    """Whether b's last coordinate is negative, read on its row when exact."""
    row = row_of(b)
    sign = scalar_sign(b.v[-1]) if row is None else quad_sign(row[0][-1], row[1][-1], row[4])
    return sign < 0


def row_of(x) -> Optional[tuple]:
    """The ``exactnum.exact_row`` of an exact ball's vector, or of an exact
    map's matrix read row by row; None when it holds a float, and refused
    when it lies in two fields.  Made once and kept."""
    try:
        return x._row
    except AttributeError:
        row = _values_row(_values(x))
        object.__setattr__(x, "_row", row)
        return row


def _values(x) -> list:
    """A ball's vector, or a map's matrix read row by row."""
    return x.v if isinstance(x, Ball) else [e for r in x.mat for e in r]


def _values_row(values) -> Optional[tuple]:
    """The ``exactnum.exact_row`` of exact values; None when one is a float."""
    return None if is_float_data(values) else exact_row(values)


def ball_from_row(row: tuple) -> Ball:
    """The ball born with an exact unit vector's ``exactnum`` row."""
    b = Ball.__new__(Ball)
    object.__setattr__(b, "_row", row)
    return b


def _exact_product(b1: Ball, b2: Ball) -> tuple:
    """(X, Y, D, m) with x.y = (X + Y sqrt m)/D and D > 0, for exact balls.

    With rows x = (A1 + B1 sqrt m) n1/d1 and y = (A2 + B2 sqrt m) n2/d2,
    X = (A1.A2 + m B1.B2) n1 n2, Y = (A1.B2 + B1.A2) n1 n2 and D = d1 d2.
    Rows in two fields are refused.
    """
    A1, B1, n1, d1, f1 = row_of(b1)
    A2, B2, n2, d2, f2 = row_of(b2)
    m, n = one_field(f1, f2), n1 * n2
    x = lorentz_product(A1, A2) + m * lorentz_product(B1, B2)
    y = lorentz_product(A1, B2) + lorentz_product(B1, A2)
    return x * n, y * n, d1 * d2, m


def classify_pair(b1: Ball, b2: Ball) -> str:
    """Relative position of two balls from their Lorentz product p.  Exact
    pairs are decided on their rows; float pairs whose window around -1, 0
    and 1 reaches 1/2 (curvature ~1e5) are refused, as no float answer is
    sound there."""
    if _is_past_directed(b1) and _is_past_directed(b2):
        raise ValueError("cannot classify a pair of past-directed balls")
    r1, r2 = row_of(b1), row_of(b2)
    if r1 is None or r2 is None:
        x, y = b1.v, b2.v
        p = lorentz_product(x, y)
        scale = lambda: product_scale(x, y)
        if same_vector(x, y):
            return EQUAL
        if FLOAT_REL * scale() >= 0.5:
            raise ValueError(f"float balls too large to classify (scale {scale():.3g})")
        side = lambda t: compare(p, t, scale)
    else:
        X, Y, D, m = _exact_product(b1, b2)
        side = lambda t: quad_sign(X - t * D, Y, m)
    s = side(-1)
    if s <= 0:
        return EXTERNALLY_TANGENT if s == 0 else DISJOINT
    if side(0) == 0:
        return ORTHOGONAL
    s = side(1)
    if s == 0:  # equal exact rows have p = 1; equal float vectors returned above
        return EQUAL if r1 is not None and r1 == r2 else INTERNALLY_TANGENT
    return NESTED if s > 0 else OVERLAPPING


# -- Mobius maps --------------------------------------------------------------


class MobiusMap:
    """An orthochronous Lorentz matrix acting on balls.  An exact map keeps
    the ``exactnum`` row of its matrix once :func:`row_of` has made it."""

    __slots__ = ("mat", "_row")

    def __init__(self, mat, check: bool = True):
        mat = linalg.mat(mat)
        if check:
            _validate_lorentz(mat)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("MobiusMap is immutable")

    @property
    def dimension(self) -> int:
        return len(self.mat) - 2

    @classmethod
    def identity(cls, d: int) -> "MobiusMap":
        return cls(linalg.identity(d + 2), check=False)

    def __matmul__(self, other: "MobiusMap") -> "MobiusMap":
        return MobiusMap(linalg.mat_mul(self.mat, other.mat), check=False)

    def inverse(self) -> "MobiusMap":
        # For M in O(d+1,1): M^-1 = Q M^T Q
        n = len(self.mat)
        t = linalg.transpose(self.mat)
        inv = [list(row) for row in t]
        for i in range(n - 1):
            inv[i][n - 1] = -inv[i][n - 1]
            inv[n - 1][i] = -inv[n - 1][i]
        return MobiusMap(tuple(tuple(r) for r in inv), check=False)

    def __call__(self, b: Ball) -> Ball:
        return apply_map(self, b)

    def __eq__(self, other):
        return isinstance(other, MobiusMap) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"MobiusMap({[list(r) for r in self.mat]!r})"


def _validate_lorentz(mat) -> None:
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("matrix must be square")
    cols = tuple(zip(*mat))
    # M^T Q M == Q, checked column by column
    for i in range(n):
        for j in range(i, n):
            want = 0 if i != j else (1 if i < n - 1 else -1)
            s = lorentz_product(cols[i], cols[j])
            if compare(s, want, lambda: product_scale(cols[i], cols[j])) != 0:
                raise ValueError("matrix does not preserve the Lorentz form")
    if scalar_sign(mat[n - 1][n - 1]) <= 0:
        raise ValueError("matrix is not orthochronous")


def inversion_map(b: Ball) -> MobiusMap:
    """The inversion in b as a Lorentz matrix, I - 2 x xT Q; for the row
    x = (A + B sqrt m) num/den, :func:`_row_reflection` with c =
    num^2/den^2."""
    A, B, num, den, m = row_of(b) or float_row(b.v)
    return _row_reflection(A, B, m, (num * num, 0, den * den))


def reflection_map(n, scale=None) -> Optional[MobiusMap]:
    """The reflection I - 2 n nT Q / <n, n> in a space-like vector n, or
    None when <n, n> is not positive (for floats: within ``compare``'s
    window, with terms of size ``scale()``).  For the row n = (A + B sqrt m)
    num/den, <n, n> is (X + Y sqrt m) num^2/den^2 and the scale cancels:
    :func:`_row_reflection` with c = 1/(X + Y sqrt m), which is 1/X when Y
    is zero."""
    A, B, _, _, m = _values_row(n) or float_row(n)
    X = lorentz_product(A, A) + m * lorentz_product(B, B)
    Y = 2 * lorentz_product(A, B)
    if quad_sign(X, Y, m, scale) <= 0:
        return None
    return _row_reflection(A, B, m, (X, -Y, X * X - m * Y * Y) if Y else (1, 0, X))


def _row_reflection(A, B, m: int, c: tuple) -> MobiusMap:
    """I - 2 c x xT Q for the row x = A + B sqrt m and c = (cp + cq sqrt m)/cd:
    with P = A AT + m B BT and R = A BT + B AT, the matrix is
    I + (-2 (cp P + m cq R) Q + (-2 (cp R + cq P) Q) sqrt m) / cd.  An exact
    map keeps that row; a float one (B and cq zero) is I - 2 cp P Q / cd."""
    cp, cq, cd = c
    n = len(A)
    MA, MB = [], []
    for i in range(n):
        for j in range(n):
            p, r = A[i] * A[j], 0
            if m:
                p, r = p + m * B[i] * B[j], A[i] * B[j] + B[i] * A[j]
            q = -2 if j == n - 1 else 2
            MA.append(-q * (cp * p + m * cq * r))
            MB.append(-q * (cp * r + cq * p))
    if isinstance(cd, float):
        row, flat = None, [(1 if k % (n + 1) == 0 else 0) + x / cd for k, x in enumerate(MA)]
    else:
        for k in range(0, n * n, n + 1):
            MA[k] += cd
        row = scaled_row(MA, MB, 1, cd, m)
        flat = row_vector(*row)
    out = MobiusMap(tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n)), check=False)
    object.__setattr__(out, "_row", row)
    return out


def apply_map(m: MobiusMap, b: Ball) -> Ball:
    """The image ball m(b), as the product of the map's row and the ball's,
    (MA + MB sqrt f)(A + B sqrt f) over den_M den_b, with f the one field
    of the two rows; a map or ball holding a float takes both in floats.

    A float image w = M b must lie on the unit shell within the rounding of
    its norm, whose terms have size sum_i (sum_k |M_ik b_k|)^2, and is kept
    as it is: dividing w by sqrt(<w, w>) would move it by that rounding
    relative to its size, far more than the product's own rounding where
    the coordinates are large.
    """
    mrow, brow = row_of(m), row_of(b)
    if mrow is None or brow is None:
        mrow, brow = float_row(_values(m)), float_row(b.v)
    MA, MB, mn, md, fm = mrow
    A, B, n, d, fb = brow
    f, k = one_field(fm, fb), len(m.mat)
    xa, xb = [], []
    for i in range(0, k * k, k):
        ra, rb = MA[i : i + k], MB[i : i + k]
        x = sum(map(mul, ra, A))
        xa.append(x + f * sum(map(mul, rb, B)) if f else x)
        xb.append(sum(map(mul, ra, B)) + sum(map(mul, rb, A)) if f else 0)
    if not isinstance(d, float):
        return ball_from_row(scaled_row(xa, xb, mn * n, md * d, f))
    w = tuple(xa)  # float rows have B zero and scale one
    n = lorentz_product(w, w)
    scales = lambda: (product_scale(MA[i : i + k], A) for i in range(0, k * k, k))  # noqa: E731
    terms = lambda: sum(s * s for s in scales())  # inf, where a float's s ** 2 raises OverflowError
    if compare(n, 1, terms) != 0:
        raise ValueError(f"map output drifted off the unit shell by {abs(n - 1)}")
    return Ball(w, _checked=True)


# -- the projective light-source model ----------------------------------------


def light_source_balls(points) -> tuple:
    """The balls whose boundaries are the horizons of light sources u,
    |u| > 1: (u, 1)/s with s^2 = |u|^2 - 1.

    u is taken on its row (A + B sqrt m) num/den: |u|^2 - 1 is the pair
    (X + Y sqrt m)/den^2, and 1/s multiplies the row.  Each distinct exact
    |u|^2 has its square root taken once, and a root in another field than
    u's is refused; a float u divides by its own s.
    """
    inverse_roots = {}
    out = []
    for u in points:
        u = tuple(u)
        A, B, num, den, m = _values_row(u) or float_row(u)
        n2, one = num * num, den * den
        X = (sum(map(mul, A, A)) + m * sum(map(mul, B, B))) * n2 - one
        Y = 2 * sum(map(mul, A, B)) * n2
        if quad_sign(X, Y, m, lambda: X + 2 * one) <= 0:
            raise ValueError("light source must lie strictly outside the unit sphere")
        floaty = isinstance(X, float)
        if floaty:  # a float row's den is 1: s = sqrt(X), kept as the parts of 1/s
            pa, qa, pb, qb, r = 1, exact_sqrt(X), 0, 1, 0
        else:
            key = quad_value((X, one, Y, one), m)
            if key not in inverse_roots:
                inverse_roots[key] = scalar_parts(ratio(1, exact_sqrt(key)))
            pa, qa, pb, qb, r = inverse_roots[key]
        # (u, 1)/s = (A num + B num sqrt m, den) (pa qb + pb qa sqrt r) / (den qa qb)
        f, P, Q = one_field(m, r), pa * qb, pb * qa
        UA, UB = [a * num for a in A] + [den], [b * num for b in B] + [0]
        VA = [a * P + f * b * Q for a, b in zip(UA, UB)] if f else [a * P for a in UA]
        VB = [b * P + a * Q for a, b in zip(UA, UB)]
        if floaty:
            out.append(Ball(tuple(a / (den * qa * qb) for a in VA)))
        else:
            out.append(ball_from_row(scaled_row(VA, VB, 1, den * qa * qb, f)))
    return tuple(out)
