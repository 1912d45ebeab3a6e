"""Ball arrangements obtained by projecting outer-sphere polytopes.

Every vertex of an outer-sphere polytope is the light source of a ball; the
arrangement of those balls is the polytope's projection.  Edge-scribed
realizations project to packings whose tangency graph is the polytope graph.
This module adds centered projections (a chosen face sent to infinity),
polar-dual arrangements, Gramians, and Mobius spectra.  A projection takes
its balls from the vertices' rows (:func:`lorentz.light_source_balls`, one
square root per distinct |u|^2), its facet balls from the polar vertices
that :func:`polytopes.polar_dual` computes on rows, and a Mobius image of
either is a matrix-row product (:func:`lorentz.apply_map`): in integers for
exact data, in floats for float data.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from . import linalg
from .exactnum import FLOAT_REL, approx, quad_float
from .lorentz import (
    DISJOINT,
    EXTERNALLY_TANGENT,
    MobiusMap,
    _is_past_directed,
    apply_map,
    classify_pair,
    light_source_balls,
    lorentz_product,
    reflection_map,
    row_of,
)
from .polytopes import Polytope, Solid, face_barycenter, polar_dual, regular_edge_scribed


@dataclass(frozen=True)
class BallArrangement:
    """An ordered list of same-dimensional balls, optionally tied to a polytope.

    ``dual_balls`` (one per facet, when present) ride along under Mobius
    transforms, so a moved packing still knows the balls orthogonal to its
    facets; see :func:`with_dual`.
    """

    balls: tuple
    polytope: Optional[Polytope] = None
    dual_balls: Optional[tuple] = None

    def __post_init__(self):
        if not self.balls:
            raise ValueError("arrangement needs at least one ball")
        d = self.balls[0].dimension
        if any(b.dimension != d for b in self.balls):
            raise ValueError("balls of mixed dimensions")

    @property
    def dimension(self) -> int:
        return self.balls[0].dimension

    def __len__(self):
        return len(self.balls)

    def __getitem__(self, i):
        return self.balls[i]

    def curvatures(self) -> tuple:
        return tuple(b.curvature for b in self.balls)

    def transformed(self, m: MobiusMap) -> "BallArrangement":
        moved_dual = None
        if self.dual_balls is not None:
            moved_dual = tuple(apply_map(m, b) for b in self.dual_balls)
        return BallArrangement(
            tuple(apply_map(m, b) for b in self.balls), self.polytope, moved_dual
        )

    def approx(self) -> "BallArrangement":
        dual = None
        if self.dual_balls is not None:
            dual = tuple(b.approx() for b in self.dual_balls)
        return BallArrangement(tuple(b.approx() for b in self.balls), self.polytope, dual)


def project(p: Polytope) -> BallArrangement:
    """One ball per vertex, via the light-source correspondence."""
    return BallArrangement(light_source_balls(p.vertices), p)


_NO_POLYGON_DUAL = "a polygon has no dual arrangement: its polar's vertices lie on the unit circle"


def with_dual(a: BallArrangement) -> BallArrangement:
    """A copy of the arrangement with its facet balls attached.

    Only an untransformed projection can compute them from the polytope, so
    call this before applying any Mobius map.  Polygons have none (see
    :func:`dual`).
    """
    if a.dimension == 1:
        raise ValueError(_NO_POLYGON_DUAL)
    if a.dual_balls is not None:
        return a
    if a.polytope is None:
        raise ValueError("attaching a dual needs the arrangement's polytope")
    return BallArrangement(a.balls, a.polytope, project(polar_dual(a.polytope)).balls)


_SCREEN_ROWS = 64  # rows of float products pair_screen holds at once


def pair_screen(balls):
    """The pairs (i, j), i < j in row-major order, that are not proven DISJOINT.

    Every pair this skips is one that :func:`lorentz.classify_pair` calls
    DISJOINT, without raising; every other pair is yielded for it to decide.
    The proof is a float64 product with a rigorous error bound (a filtered
    predicate) on a list of one kind: all balls float vectors of floats,
    or all exact rows in one field Q(sqrt m), of d+2 coordinates each.  A
    list of any other make-up yields every pair, so its answer, and any
    error, is that of the loop over all pairs.

    Write u = 2^-53, X for the float rows and M for the magnitude rows,
    floored at 2^-1022: x and |x| for a float ball, and for an exact row
    (A + B sqrt m) num/den its value and (|A| + |B| sqrt m) num/den, through
    ``exactnum.quad_float``.  With P = X Q X^T and S = M M^T computed in
    floats, a pair is proven DISJOINT when

    * P + slack < -1, with slack = c u S and c = 8(d+2) + 32;
    * the two balls are not both past-directed, by ``classify_pair``'s
      own test: it refuses such a pair;
    * both rows convert to finite floats; a row that does not keeps all
      its pairs;

    and, in a float list,

    * the slack also holds FLOAT_REL max(1, S), the window of the float
      comparison, and FLOAT_REL (S + c u S) < 1/2, so that the pairs
      ``classify_pair`` refuses as too large are yielded;
    * some coordinate differs by more than FLOAT_REL max(1, largest
      coordinate), the very float test of ``same_vector``, so that no pair
      it calls EQUAL is skipped.

    Why the slack suffices: X is correctly rounded on rationals and within
    4u M of an irrational coordinate, with the floor of M covering
    underflow, so each term x_k y_k moves by at most about 8u M_k(x) M_k(y).
    The float dot product adds at most (d+2) u S in any summation order,
    and in float mode ``classify_pair``'s own sum differs from the true one
    by as much again.  Rounding P + slack, and ``compare``'s p + 1, adds
    about 3u S, as S >= 1 whenever |p| > 1, and S itself is computed to
    (d+2) u.  All of that stays below (3(d+2) + 16) u S, so P + slack < -1
    puts the exact product, and the float product ``classify_pair``
    compares, below -1 by more than its window: DISJOINT.

    The rows are screened 64 at a time against the rows after them, so
    memory stays O(64 n) and a caller that stops early skips the rest.
    """
    import numpy as np

    n = len(balls)
    if n < 2:
        return
    rows = [row_of(b) for b in balls]
    floaty = all(r is None for r in rows)
    fields = {r[4] for r in rows if r is not None} - {0}
    one_kind = (
        all(isinstance(c, float) for b in balls for c in b.v) if floaty
        else all(r is not None for r in rows) and len(fields) < 2
    )
    width = balls[0].dimension + 2
    if not one_kind or any(b.dimension + 2 != width for b in balls):
        yield from combinations(range(n), 2)
        return
    if floaty:
        x = np.array([b.v for b in balls])
        mag = np.abs(x)
    else:  # a row that does not convert stays zero, and a zero row proves nothing
        x, mag = np.zeros((n, width)), np.zeros((n, width))
        root = math.sqrt(max(fields, default=0))
        for i, (A, B, num, den, _) in enumerate(rows):
            with suppress(OverflowError):
                x[i], mag[i] = (
                    [quad_float((a * num, den, b * num, den), root) for a, b in zip(A, B)],
                    [quad_float((abs(a) * num, den, abs(b) * num, den), root) for a, b in zip(A, B)],
                )
    bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(mag).all(axis=1))
    x[bad] = mag[bad] = 0.0
    np.maximum(mag, 2.0**-1022, out=mag)
    past = np.array([_is_past_directed(b) for b in balls])
    cu = (8 * width + 32) * 2.0**-53  # c u
    xq = x.copy()
    xq[:, -1] = -xq[:, -1]
    top = np.abs(x).max(axis=1)
    for lo in range(0, n, _SCREEN_ROWS):
        hi = min(lo + _SCREEN_ROWS, n)
        s = mag[lo:hi] @ mag[lo:].T
        bound = xq[lo:hi] @ x[lo:].T
        bound += cu * s
        if floaty:
            bound += FLOAT_REL * np.maximum(1.0, s)
        proven = bound < -1
        proven &= ~(past[lo:hi, None] & past[None, lo:])
        if floaty:
            proven &= FLOAT_REL * (1 + cu) * s < 0.5
            tol = FLOAT_REL * np.maximum(1.0, np.maximum(top[lo:hi, None], top[None, lo:]))
            apart = np.zeros_like(proven)
            for k in range(width):
                apart |= np.abs(x[lo:hi, k, None] - x[None, lo:, k]) > tol
            proven &= apart
        upper = np.arange(n - lo)[None, :] > np.arange(hi - lo)[:, None]
        i, j = np.nonzero(upper & ~proven)
        yield from zip((i + lo).tolist(), (j + lo).tolist())


def classified_pairs(balls) -> Iterator[tuple]:
    """(i, j, relation) from :func:`lorentz.classify_pair` for each pair
    :func:`pair_screen` yields, in its order; every other pair is DISJOINT."""
    for i, j in pair_screen(balls):
        yield i, j, classify_pair(balls[i], balls[j])


def first_overlap(balls) -> Optional[tuple]:
    """The first pair of balls, i < j in row-major order, that is neither
    externally tangent nor disjoint, as (i, j, relation); None for a packing.

    Only the pairs :func:`pair_screen` does not prove disjoint are
    classified, so the answer, and any ValueError, is that of the loop
    over all pairs.
    """
    for i, j, c in classified_pairs(balls):
        if c not in (EXTERNALLY_TANGENT, DISJOINT):
            return i, j, c
    return None


def is_packing(a: BallArrangement) -> bool:
    """True iff all pairs are externally tangent or disjoint."""
    return first_overlap(a.balls) is None


def _rotation_to_north(direction, n: int):
    """(n x n) float rotation sending the given direction to +e_n, minimally."""
    a = [float(x) for x in direction]
    norm = math.sqrt(sum(x * x for x in a))
    a = [x / norm for x in a]
    c = a[-1]  # cos(theta) against the north axis
    s2 = 1 - c * c
    if s2 < 1e-30:
        if c > 0:
            return linalg.identity(n)
        # antipodal: half-turn in the plane of the axis and a perpendicular
        u = [0.0] * n
        u[0] = 1.0 if abs(a[0]) < 0.9 else 0.0
        if not any(u):
            u[1] = 1.0
        dot = sum(x * y for x, y in zip(u, a))
        u = [x - dot * y for x, y in zip(u, a)]
        un = math.sqrt(sum(x * x for x in u))
        u = [x / un for x in u]
        rows = []
        for i in range(n):
            rows.append(
                tuple(
                    (1.0 if i == j else 0.0) - 2 * a[i] * a[j] - 2 * u[i] * u[j]
                    for j in range(n)
                )
            )
        return tuple(rows)
    s = math.sqrt(s2)
    t = [0.0] * (n - 1) + [1.0]
    v = [(x - c * y) / s for x, y in zip(t, a)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = 1.0 if i == j else 0.0
            row.append(
                e + (c - 1) * (a[i] * a[j] + v[i] * v[j]) + s * (v[i] * a[j] - a[i] * v[j])
            )
        rows.append(tuple(row))
    return tuple(rows)


def centered_projection(s: Solid, k: int) -> BallArrangement:
    """Projection with the barycenter of a k-face rotated to the north ray.

    The chosen face's barycenter goes to infinity under stereographic
    projection, so e.g. vertex-centering produces one ball containing all
    the others (its curvature is the only negative entry).
    """
    return project(face_to_north(regular_edge_scribed(s), k))


def face_to_north(p: Polytope, k: int) -> Polytope:
    """The polytope rotated, in floats, so that the barycenter of its first
    k-face lies on the north ray; the face lattice is unchanged."""
    if k not in p.faces_by_rank:
        raise ValueError(f"rank {k} out of range 0..{p.dimension}")
    f = p.faces_by_rank[k][0]
    bary = face_barycenter(p, f)
    rot = _rotation_to_north(bary, p.ambient_dimension)
    verts = tuple(
        tuple(float(approx(x)) for x in linalg.mat_vec(rot, tuple(map(approx, u))))
        for u in p.vertices
    )
    return Polytope(verts, p.faces_by_rank, family=p.family)


def dual(a: BallArrangement) -> BallArrangement:
    """One ball per facet, orthogonal to the balls of the facet's vertices.

    If the arrangement carries attached dual balls they are used directly
    (correct for transformed packings); otherwise the polar dual polytope is
    projected, which is only faithful for unmoved projections.  Polygons
    (d = 1) have no dual arrangement: an edge-scribed polygon's edges touch
    the unit circle, so its polar's vertices are those touching points, on
    the circle, and cast no ball.
    """
    if a.dimension == 1:
        raise ValueError(_NO_POLYGON_DUAL)
    if a.dual_balls is None and a.polytope is None:
        raise ValueError("dual needs the arrangement's polytope")
    dual_poly = polar_dual(a.polytope) if a.polytope is not None else None
    balls = a.dual_balls if a.dual_balls is not None else project(dual_poly).balls
    return BallArrangement(balls, dual_poly, a.balls)


def gram(a: BallArrangement):
    """Gramian of the arrangement: pairwise Lorentz products."""
    vs = [b.v for b in a.balls]
    return linalg.mat(
        [[lorentz_product(u, v) for v in vs] for u in vs]
    )


def _reflection_swapping(x, t) -> Optional[MobiusMap]:
    """Lorentz reflection exchanging unit space-like vectors x and t, if sound."""
    n = tuple(a - b for a, b in zip(x, t))
    sizes = lambda: (abs(a) + abs(b) for a, b in zip(x, t))  # noqa: E731
    return reflection_map(n, lambda: sum(s * s for s in sizes()))  # a float's s ** 2 can raise


# -- Mobius spectra -------------------------------------------------------------


EIGEN_GAP = 1e-6  # float eigenvalues closer than this are one eigenvalue


def mobius_spectra(s: Solid) -> tuple:
    """Eigenvalues (sorted, with multiplicity) of the solid's projection Gramian."""
    import numpy as np

    g = gram(project(regular_edge_scribed(s)))
    arr = np.array([[approx(x) for x in row] for row in g])
    return tuple(float(x) for x in np.linalg.eigvalsh(arr))


def grouped_spectra(s: Solid):
    """Spectra as (eigenvalue, multiplicity) pairs; an eigenvalue within
    EIGEN_GAP of the one before it joins that one's group."""
    groups = []
    for e in mobius_spectra(s):
        if groups and abs(groups[-1][-1] - e) <= EIGEN_GAP:
            groups[-1].append(e)
        else:
            groups.append([e])
    return [(sum(g) / len(g), len(g)) for g in groups]
