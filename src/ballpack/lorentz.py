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
is two integers X + Y sqrt m over a positive integer, and its exact sign
against -1, 0 and 1 is ``quad_sign`` of integers.  Every other test of a
Lorentz product x.y against -1, 0 or 1 goes through
:func:`exactnum.compare`: exact in exact mode, and in float mode within
FLOAT_REL = 1e-10 times the size of its terms, sum |x_i y_i|, which grows
with the coordinates of deep balls.  Where that window reaches 1/2, -1, 0
and 1 are no longer apart, and :func:`classify_pair` refuses the float pair
instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import linalg
from .exactnum import (
    FLOAT_REL,
    QuadScalar,
    approx,
    compare,
    exact_row,
    exact_sqrt,
    is_float_data,
    quad_sign,
    ratio,
    scalar_parts,
    scalar_sign,
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
    ``exactnum`` row once :func:`classify_pair` has made it."""

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

    @property
    def dimension(self) -> int:
        return len(self.v) - 2

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
    t = b.v[-1]
    if isinstance(t, QuadScalar) and t.m:  # the sign of the row's last integers
        A, B = _row(b)[:2]
        return quad_sign(A[-1], B[-1], t.m) < 0
    return scalar_sign(t) < 0


def _row(b: Ball) -> tuple:
    """The exact ball's ``exactnum.exact_row``, made once and kept."""
    try:
        return b._row
    except AttributeError:
        row = exact_row([scalar_parts(x) for x in b.v])
        object.__setattr__(b, "_row", row)
        return row


def _exact_product(b1: Ball, b2: Ball) -> tuple:
    """(X, Y, D, m) with x.y = (X + Y sqrt m)/D and D > 0, for exact balls.

    With rows x = (A1 + B1 sqrt m) n1/d1 and y = (A2 + B2 sqrt m) n2/d2,
    X = (A1.A2 + m B1.B2) n1 n2, Y = (A1.B2 + B1.A2) n1 n2 and D = d1 d2.
    Rows in two fields take the product of their scalars, which refuses to
    mix the fields wherever two irrational parts meet.
    """
    A1, B1, n1, d1, f1 = _row(b1)
    A2, B2, n2, d2, f2 = _row(b2)
    fields = f1 | f2
    if len(fields) > 1:
        pa, qa, pb, qb, m = scalar_parts(lorentz_product(b1.v, b2.v))
        return pa * qb, pb * qa, qa * qb, m
    m, n = next(iter(fields), 0), n1 * n2
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
    x, y = b1.v, b2.v
    if is_float_data(x) or is_float_data(y):
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
    if s == 0:  # equal exact vectors have p = 1; equal float ones returned above
        return EQUAL if x == y else INTERNALLY_TANGENT
    return NESTED if s > 0 else OVERLAPPING


# -- Mobius maps --------------------------------------------------------------


class MobiusMap:
    """An orthochronous Lorentz matrix acting on balls."""

    __slots__ = ("mat",)

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
    """The inversion in b as a Lorentz matrix, I - 2 x xT Q."""
    v = b.v
    n = len(v)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            q = -1 if j == n - 1 else 1
            e = 1 if i == j else 0
            row.append(e - 2 * v[i] * v[j] * q)
        rows.append(tuple(row))
    return MobiusMap(tuple(rows), check=False)


def apply_map(m: MobiusMap, b: Ball) -> Ball:
    """The image ball m(b); a float image is renormalized onto the unit shell.

    The float drift allowed is the rounding of w = M b, whose norm's terms
    have size sum_i (sum_k |M_ik b_k|)^2.
    """
    w = linalg.mat_vec(m.mat, b.v)
    if is_float_data(w):
        n = lorentz_product(w, w)
        terms = lambda: sum(product_scale(r, b.v) ** 2 for r in m.mat)
        if n <= 0 or compare(n, 1, terms) != 0:
            raise ValueError(f"map output drifted off the unit shell by {abs(n - 1)}")
        r = math.sqrt(n)
        w = tuple(x / r for x in w)
    return Ball(w, _checked=True)


# -- the projective light-source model ----------------------------------------


def light_source(b: Ball) -> tuple:
    """Point of E^{d+1} outside the unit sphere whose shadow is the ball b."""
    t = b.v[-1]
    if scalar_sign(t) <= 0:
        raise ValueError("ball vector is past-directed or ideal; no light source")
    return tuple(ratio(x, t) for x in b.v[:-1])


def ball_from_light_source(u: Sequence[Scalar]) -> Ball:
    """Ball whose boundary is the horizon of a light source u, |u| > 1."""
    u = tuple(u)
    u2 = sum(x * x for x in u)
    if compare(u2, 1) <= 0:
        raise ValueError("light source must lie strictly outside the unit sphere")
    s = exact_sqrt(u2 - 1)
    v = tuple(ratio(x, s) for x in u) + (ratio(1, s),)
    return Ball(v)
