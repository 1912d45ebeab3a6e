"""Reflection groups of polytopal ball packings and their orbit clusters.

A packing of d-balls carries a ladder of Mobius-map groups: the inversions
in its facet (dual) balls, those together with the packing's own reflection
symmetries, and the further extension by inversions in the packing's own
balls.  For the five regular polyhedra the frame can be normalized so that
every generator on the ladder is one of five concrete reflection matrices
over Z, Z[sqrt2] or Z[phi]; this module builds those generators, the seed
packings that their three symmetry mirrors generate from one vertex ball
and one facet ball, and breadth-first orbit closures ("clusters") with
exact or floating-point deduplication.  A separate walk produces the
sequence of balls of one such orbit whose curvatures are exactly 0, 1, 4,
9, ...

Clusters grow in one breadth-first level loop, the reduced-word enumeration
of Graham, Lagarias, Mallows, Wilks and Yan, over numpy row arrays of one
of three kinds: int64, python ints (when int64 could overflow) or float64.
Only the deduplication differs between them.  Entries are in word order, the
order in which the loop visits them: by depth, then by word (letters
compared by generator position, the first-applied letter first), then by
seed orbit; each entry records the first shortest word that produces it.
The rule is one for all three kinds of rows, so a float cluster and its
exact twin list the same (depth, word, orbit) in the same order.  A cluster
hands out its balls as :class:`lorentz.Entry` objects, the inversive vector
plus that word, depth and seed orbit: the same entries that a document
stores.

A seed's balls and facet balls, its normalizing reflection and the
facet-ball inversions are made on rows (see :mod:`lorentz`), and the cluster
engine and the involution check read an exact seed's rows as they were
made; only the seed's light-like vector y is found in scalars, by one Gram
solve (:func:`linalg.solve`, in both numeric modes) and one square root
along the first face's dual ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import linalg
from .exactnum import (
    FLOAT_REL,
    approx,
    compare,
    exact_sqrt,
    float_row,
    in_ring,
    is_float_data,
    one_field,
    quad_sign,
    ratio,
    row_vector,
    scalar_parts,
    scalar_sign,
)
from .lorentz import (
    Ball,
    Entry,
    MobiusMap,
    apply_map,
    ball_from_geometry,
    inversion_map,
    lorentz_product,
    product_scale,
    row_of,
    x_north,
)
from .packings import (
    BallArrangement,
    _reflection_swapping,
    dual,
    first_overlap,
    project,
    with_dual,
)
from .polytopes import COS2, PLATONIC, Solid, face_cycle, regular_edge_scribed

FLAVOR_DUAL = "A"  # inversions in the facet balls
FLAVOR_FULL = "SSA"  # both inversion families plus the symmetries

ROLE_DUAL_INVERSION = "dual_inversion"
ROLE_PRIMAL_INVERSION = "primal_inversion"
ROLE_SYMMETRY = "symmetry"

_FLAVORS = (FLAVOR_DUAL, FLAVOR_FULL)


# -- generator sets -------------------------------------------------------------


def _is_involution(m: MobiusMap) -> bool:
    """m @ m is the identity, tested on the map's row (A + B sqrt f) num/den:
    (A A + f B B) num^2 = den^2 I and A B + B A = 0, in python ints for an
    exact map (its kept :func:`lorentz.row_of`), and for a float map (its
    ``exactnum.float_row``) by ``compare`` with the size of each entry's terms."""
    n = len(m.mat)
    A, B, num, den, f = row_of(m) or float_row([e for r in m.mat for e in r])
    A, B = (linalg.mat(v[i : i + n] for i in range(0, n * n, n)) for v in (A, B))
    mul, cols = linalg.mat_mul, tuple(zip(*A))
    real = [[x + f * y for x, y in zip(*r)] for r in zip(mul(A, A), mul(B, B))]
    surd = [[x + y for x, y in zip(*r)] for r in zip(mul(A, B), mul(B, A))]
    one, scale = den * den, num * num
    return all(
        quad_sign(
            real[i][j] * scale - (one if i == j else 0),
            surd[i][j],
            f,
            lambda: product_scale(A[i], cols[j]),
        ) == 0
        for i in range(n)
        for j in range(n)
    )


@dataclass(frozen=True)
class Generator:
    """A named involution with its structural role in the group."""

    name: str
    role: str
    map: MobiusMap


@dataclass(frozen=True)
class GeneratorSet:
    """Named involutive Mobius maps generating one group of the ladder."""

    flavor: str
    generators: tuple
    seed: Optional[BallArrangement] = None

    def __post_init__(self):
        if self.flavor not in _FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if not self.generators:
            raise ValueError("generator set is empty")
        dims = {g.map.dimension for g in self.generators}
        if len(dims) != 1:
            raise ValueError("generators of mixed dimensions")
        for g in self.generators:
            if not _is_involution(g.map):
                raise ValueError(f"generator {g.name!r} is not an involution")

    @property
    def dimension(self) -> int:
        return self.generators[0].map.dimension

    @property
    def names(self) -> tuple:
        return tuple(g.name for g in self.generators)

    @property
    def maps(self) -> tuple:
        return tuple(g.map for g in self.generators)

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


# -- the normalized Platonic frame ----------------------------------------------


def _mirror_x(offset) -> MobiusMap:
    """Reflection of the plane in the vertical line {x = offset}."""
    return inversion_map(ball_from_geometry(2, normal=(1, 0), offset=offset))


def _coxeter_path_matrices(q: int) -> dict:
    """The five reflection generators of the normalized {3,q} frame.

    In the frame, one edge's balls are the half-planes {y >= 1} and
    {y <= -1} and their common neighbour is the unit disk at the origin.
    The maps are, in path order: inversion in the upper half-plane ball,
    the horizontal mirror, inversion in the circle of radius 2 centered at
    (0, 1), the vertical mirror at x = -2cos(pi/q), and the vertical mirror
    at x = 0 (the inversion in the marked facet ball).
    """
    if q not in (3, 4, 5):
        raise ValueError(f"no triangular-faced polyhedron with {q} faces at a vertex")
    c = exact_sqrt(4 * COS2[q])  # 2cos(pi/q): 1, sqrt 2 or phi
    return {
        "s_v": inversion_map(Ball((0, 1, 1, 1))),
        "r_v": inversion_map(Ball((0, 1, 0, 0))),
        "r_e": inversion_map(ball_from_geometry(2, center=(0, 1), curvature=Fraction(1, 2))),
        "r_f": _mirror_x(-c),
        "s_f": inversion_map(Ball((1, 0, 0, 0))),
    }


def _orbit(ball: Ball, maps) -> tuple:
    """The images of a ball under the finite group the maps generate, breadth
    first in the maps' order, each image once, keyed by its row."""

    def key(b: Ball) -> tuple:
        A, B, num, den, m = row_of(b)
        return tuple(A), tuple(B), num, den, m

    orbit, seen = [ball], {key(ball)}
    for b in orbit:
        for image in (apply_map(m, b) for m in maps):
            if key(image) not in seen:
                seen.add(key(image))
                orbit.append(image)
    return tuple(orbit)


def platonic_generators(s: Solid) -> GeneratorSet:
    """The five named reflection generators of a Platonic packing's full group.

    For the triangular-faced solids the roles along the graph path read
    (ball inversion s_v, vertex mirror r_v, edge inversion r_e, facet mirror
    r_f, facet-ball inversion s_f).  A polyhedron with triangular vertex
    figures instead gets the same five matrices with the outer and the inner
    pairs swapped, acting on the dual seed.  The attached seed is made by
    the frame's own mirrors: the symmetry group [3,q] that r_v, r_e and r_f
    generate is transitive on the vertex balls and on the facet balls, so
    these are the orbits of s_v's ball {y >= 1} and of s_f's ball {x >= 0},
    listed breadth first.
    """
    if s not in PLATONIC:
        raise ValueError(f"{s.name} has no normalized generator frame")
    p, q = s.schlafli
    base_q = q if p == 3 else p
    mats = _coxeter_path_matrices(base_q)
    mirrors = [mats[k] for k in ("r_v", "r_e", "r_f")]
    primal = BallArrangement(
        _orbit(Ball((0, 1, 1, 1)), mirrors), dual_balls=_orbit(Ball((1, 0, 0, 0)), mirrors)
    )
    if p == 3:
        seed = primal
        spelling = ("s_v", "r_v", "r_e", "r_f", "s_f")
    else:
        seed = dual(primal)
        spelling = ("s_f", "r_f", "r_e", "r_v", "s_v")
    roles = (
        ROLE_PRIMAL_INVERSION,
        ROLE_SYMMETRY,
        ROLE_SYMMETRY,
        ROLE_SYMMETRY,
        ROLE_DUAL_INVERSION,
    )
    names = ("s_v", "r_v", "r_e", "r_f", "s_f")
    gens = tuple(
        Generator(n, role, mats[key]) for n, role, key in zip(names, roles, spelling)
    )
    return GeneratorSet(FLAVOR_FULL, gens, seed)


def apollonian_group_from_packing(a: BallArrangement) -> GeneratorSet:
    """One inversion per facet ball of the arrangement.

    The arrangement must know its dual, either through an attached set of
    facet balls (see packings.with_dual), which it reads as they are, or
    through its polytope.
    """
    facets = a.dual_balls if a.dual_balls is not None else dual(a).balls
    gens = tuple(
        Generator(f"s{i}", ROLE_DUAL_INVERSION, inversion_map(b))
        for i, b in enumerate(facets)
    )
    return GeneratorSet(FLAVOR_DUAL, gens, a)


# -- seeding a packing from three consecutive curvatures -------------------------


def _future_null_with_products(anchors, b, ks):
    """A future light-like y with <y, a_i> = -k_i for the three anchors.

    The anchors, consecutive vertex balls of a 2-face, span the complement
    of the face's unit dual ball b.  One Gram solve gives the y0 in their
    span, and the light cone leaves y = y0 -+ t b, t = sqrt(-<y0, y0>): the
    two solids over the face.  y0 - t b, tried first, gives each off-face
    vertex ball x (<x, b> < 0) its smaller curvature.  A float -<y0, y0>
    within rounding of 0 is a double root.  The Gram solve is
    :func:`linalg.solve` in both numeric modes.
    """
    g3 = linalg.mat([[lorentz_product(u, v) for v in anchors] for u in anchors])
    try:
        c = linalg.solve(g3, tuple(-k for k in ks))
    except linalg.SingularMatrix:
        raise ValueError("anchor balls do not span a rank-3 subspace") from None
    y0 = tuple(sum(ci * x for ci, x in zip(c, cols)) for cols in zip(*anchors))
    r = -lorentz_product(y0, y0)
    s = compare(r, 0, lambda: product_scale(y0, y0))
    if s < 0:
        raise ValueError("curvature triple is not realizable on this solid")
    try:
        t = exact_sqrt(r) if s else 0
        ys = [tuple(a - t * x for a, x in zip(y0, b)), tuple(a + t * x for a, x in zip(y0, b))]
    except ValueError:  # the root lies outside the packing's field
        raise ValueError(
            "the normalizing square root is not expressible in the "
            "hosting field; use float mode for this seed"
        )
    for y in ys:
        if scalar_sign(y[-1]) > 0:
            return y
    raise ValueError("curvature triple has no future-pointing realization")


def _map_null_to_north(y, d: int) -> MobiusMap:
    """An orthochronous map sending the future null vector y to the probe
    direction e_{d+1} + e_{d+2}."""
    target = x_north(d)
    h = lorentz_product(y, target)
    if compare(h, 0, lambda: product_scale(y, target)) != 0:
        m = _reflection_swapping(y, target)
        if m is None:  # pragma: no cover - h != 0 guarantees a space-like mirror
            raise ValueError("could not build the normalizing reflection")
        return m
    c = y[-1]  # y is a positive multiple of the target
    mu = ratio(1, c)
    plus = ratio(mu + ratio(1, mu), 2)
    minus = ratio(mu - ratio(1, mu), 2)
    size = d + 2
    rows = []
    for i in range(size):
        row = [1 if i == j else 0 for j in range(size)]
        if i == size - 2:
            row[size - 2], row[size - 1] = plus, minus
        elif i == size - 1:
            row[size - 2], row[size - 1] = minus, plus
        rows.append(tuple(row))
    return MobiusMap(rows, check=False)


def packing_from_curvatures(s: Solid, triple) -> BallArrangement:
    """A Mobius image of the projected solid realizing three given curvatures.

    The curvatures are assigned, in order, to the first three vertices in
    cyclic order around the solid's first 2-face ("consecutive" balls: each
    tangent to the next).  The image is pinned by a future light-like vector
    y reproducing the curvature functional, found by one Gram solve on the
    three balls and one step along the face's dual ball, so all remaining
    curvatures follow from the solid's own relations.  Facet balls ride along.
    The packing is exact unless a curvature is a float.  In dimension d >= 3
    three products and the light cone leave a family of y, so it is refused.
    """
    if s.dimension >= 3:
        why = f"in dimension {s.dimension} they leave a family of seeds"
        raise ValueError(f"three curvatures do not determine a seed of {s.name}: {why}")
    triple = tuple(triple)
    if len(triple) != 3:
        raise ValueError("need exactly three consecutive curvatures")
    poly = regular_edge_scribed(s)
    arr = with_dual(project(poly))
    if is_float_data(triple):
        arr = arr.approx()
        triple = tuple(approx(k) for k in triple)
    else:  # a triple in two fields is refused, its fields named in its order
        one_field(*(scalar_parts(k)[4] for k in triple))
    anchors = face_cycle(poly, poly.faces(2)[0])[:3]
    # the dual balls follow polar_dual's facet order: the first 2-face's is dual_balls[0]
    a = [arr.balls[v].v for v in anchors]
    y = _future_null_with_products(a, arr.dual_balls[0].v, triple)
    m = _map_null_to_north(y, arr.dimension)
    out = arr.transformed(m)
    for v, k in zip(anchors, triple):
        got = out.balls[v].curvature
        # the map is built from y, so its rounding scales with y's terms; only
        # an ill-conditioned float seed drifts, so this is an input error
        if compare(got, k, lambda: sum(x * x for x in y)) != 0:
            raise ValueError(f"seed curvature drifted: {got} != {k}")
    return out


# -- clusters ---------------------------------------------------------------------


class _Store:
    """Compact per-level storage backing a Cluster.

    Exact rows are in ``exactnum``'s row form, so coordinates never
    accumulate common denominators: arrays "A"/"B" hold the integer rows and
    "num"/"den" the per-row scale, all int64 (mode "i64") or python ints
    (dtype object, mode "obj").  Mode "float" holds float64 rows "V".
    """

    __slots__ = ("mode", "m", "levels", "offsets", "count")

    def __init__(self, mode, m):
        self.mode = mode
        self.m = m
        self.levels = []
        self.offsets = [0]
        self.count = 0

    def close_level(self, rows: dict, sel, meta: dict) -> None:
        """Append the rows ``sel`` picks, in that order, with their ``meta``."""
        level = {name: arr[sel] for name, arr in rows.items()}
        level.update(meta, n=int(sel.size))
        self.levels.append(level)
        self.count += level["n"]
        self.offsets.append(self.count)

    def locate(self, gidx: int):
        k = 0
        while self.offsets[k + 1] <= gidx:
            k += 1
        return k, gidx - self.offsets[k]

    def vector(self, k: int, i: int) -> tuple:
        lv = self.levels[k]
        if self.mode == "float":
            return tuple(lv["V"][i].tolist())
        return row_vector(
            lv["A"][i].tolist(), lv["B"][i].tolist(), int(lv["num"][i]), int(lv["den"][i]), self.m
        )

    def curvature(self, k: int, i: int):
        lv = self.levels[k]
        if self.mode == "float":
            row = lv["V"][i]
            return float(row[-1] - row[-2])
        a, b = lv["A"][i].tolist(), lv["B"][i].tolist()
        (kappa,) = row_vector(
            (a[-1] - a[-2],), (b[-1] - b[-2],), int(lv["num"][i]), int(lv["den"][i]), self.m
        )
        return kappa

    def row_meta(self, k: int, i: int):
        lv = self.levels[k]
        return int(lv["gen"][i]), int(lv["parent"][i]), int(lv["orbit"][i])


class Cluster:
    """Deduplicated breadth-first closure of a seed packing.

    Entries are in word order: by depth, then by word (letters compared by
    generator position, the first-applied letter first), then by seed
    orbit, as the level loop stores them, for int64, python-int and float
    rows alike.  ``entry(i)`` and iteration build each
    :class:`lorentz.Entry` (the type documents store) from its row on
    demand and keep none of them, so very large exact clusters can still
    stream curvatures from the rows without building entries.
    """

    __slots__ = ("seed", "flavor", "depth", "generator_names", "_store")

    def __init__(self, seed, flavor, depth, generator_names, store):
        self.seed = seed
        self.flavor = flavor
        self.depth = depth
        self.generator_names = generator_names
        self._store = store

    def __len__(self):
        return self._store.count

    def __repr__(self):
        return (
            f"Cluster(flavor={self.flavor!r}, depth={self.depth}, "
            f"entries={len(self)})"
        )

    def _word(self, gidx: int) -> tuple:
        out = []
        st = self._store
        while gidx >= 0:
            k, i = st.locate(gidx)
            gen, parent, _ = st.row_meta(k, i)
            if gen >= 0:
                out.append(self.generator_names[gen])
            gidx = parent
        return tuple(reversed(out))

    def entry(self, i: int) -> Entry:
        st = self._store
        k, li = st.locate(i)
        _, _, orbit = st.row_meta(k, li)
        return Entry(st.vector(k, li), depth=k, word=self._word(i), orbit=orbit)

    def __iter__(self) -> Iterator[Entry]:
        return (self.entry(i) for i in range(len(self)))

    def rows(self) -> dict:
        """Every entry's row in entry order, in the store's layout: "A", "B",
        "num", "den" and the field modulus "m", or float rows "V"; plus
        "depth", "orbit" and "word".  A word is its parent's word plus the
        name of the generator that made the entry, so all are built in one
        pass over the levels."""
        import numpy as np

        st = self._store
        names = ("V",) if st.mode == "float" else ("A", "B", "num", "den")
        out = {k: np.concatenate([lv[k] for lv in st.levels]) for k in (*names, "orbit")}
        words = []
        for lv in st.levels:
            for gen, parent in zip(lv["gen"].tolist(), lv["parent"].tolist()):
                words.append(words[parent] + (self.generator_names[gen],) if gen >= 0 else ())
        depth = np.repeat(np.arange(len(st.levels)), [lv["n"] for lv in st.levels])
        out.update(m=st.m, depth=depth, word=words)
        return out

    def curvatures(self) -> Iterator:
        st = self._store
        for k, lv in enumerate(st.levels):
            for i in range(lv["n"]):
                yield st.curvature(k, i)

    def curvatures_in_ring(self, ring: str) -> bool:
        """True iff every curvature is an algebraic integer of the ring.

        Runs on the internal level arrays, so million-entry exact clusters
        are checked in bulk; float clusters cannot certify integrality.
        """
        st = self._store
        if st.mode == "float":
            raise ValueError("integrality needs an exact cluster")
        for lv in st.levels:  # value = (ka + kb sqrt m) * num / den
            ka = lv["A"][:, -1] - lv["A"][:, -2]
            kb = lv["B"][:, -1] - lv["B"][:, -2]
            num, den = lv["num"], lv["den"]
            big = 4 * int(abs(ka).max(initial=0) + abs(kb).max(initial=0) + 1)
            if big * int(num.max(initial=1)) >= 2**63:  # int64 products could overflow
                ka, kb, num, den = (a.astype(object, copy=False) for a in (ka, kb, num, den))
            if not in_ring(ka, kb, num, den, st.m, ring).all():
                return False
        return True


def generate_cluster(seed: BallArrangement, gens: GeneratorSet, depth: int = 5) -> Cluster:
    """Breadth-first closure of the seed balls under the generators.

    Words grow on the left (a child is g applied to its parent), repeats of
    the generator just applied are pruned, and balls are deduplicated: in
    exact mode by the normalized coordinate tuple, in float mode when every
    coordinate agrees within FLOAT_REL * max(1, |row|inf), FLOAT_REL = 1e-10
    (the policy of exactnum.compare).  Each ball keeps its first shortest
    word, and the entries are in word order (see :class:`Cluster`).  A float
    level whose coordinates overflow is refused with a ValueError.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if gens.dimension != seed.dimension:
        raise ValueError("generator and seed dimensions differ")
    if any(row_of(x) is None for x in (*seed.balls, *gens.maps)):
        store = _float_cluster(seed, [g.mat for g in gens.maps], depth)
    else:
        store = _exact_cluster(seed, gens.maps, depth)
    return Cluster(seed, gens.flavor, depth, gens.names, store)


def _grow(store: _Store, rows: dict, expand, first_fresh, depth: int, n_gens: int):
    """The level loop shared by the int64, big-int and float backends.

    ``rows`` holds the seed rows as named arrays, and ``expand(level)``
    returns the rows g(x) of every generator g and level row x,
    generator-major.  Candidates are visited in word order: by the parent's
    word, then the generator, then the parent, so that a level lists its
    entries by word (letters compared by generator position, the
    first-applied letter first) and then by seed orbit.  A child repeating
    its parent's generator is pruned, and ``first_fresh(rows, order, seen)``
    keeps the first candidate of each ball not seen before, so each entry
    records its first shortest word.  Kept children of one parent group and
    generator form one group of the next level, and a level stores its
    entries in the order they were kept: the cluster's entry order.
    """
    import numpy as np

    n0 = len(next(iter(rows.values())))
    sel, seen = first_fresh(rows, np.arange(n0), None)
    none = np.full(sel.size, -1, dtype=np.int64)
    meta = {"gen": none, "parent": none, "orbit": sel, "group": np.zeros_like(sel)}
    store.close_level(rows, sel, meta)
    for k in range(1, depth + 1):
        prev = store.levels[k - 1]
        n = prev["n"]
        rows = expand(prev)
        gg = np.repeat(np.arange(n_gens, dtype=np.int64), n)
        pp = np.tile(np.arange(n, dtype=np.int64), n_gens)
        order = np.lexsort((pp, gg, np.tile(prev["group"], n_gens)))
        order = order[np.tile(prev["gen"], n_gens)[order] != gg[order]]
        first, seen = first_fresh(rows, order, seen)
        if first.size == 0:
            break
        sel = order[first]
        p_lv = sel % n
        g_lv = sel // n
        pair = prev["group"][p_lv] * n_gens + g_lv  # nondecreasing along `order`
        group = np.cumsum(np.concatenate([[0], (np.diff(pair) != 0).astype(np.int64)]))
        meta = {
            "gen": g_lv,
            "parent": store.offsets[k - 1] + p_lv,
            "orbit": prev["orbit"][p_lv],
            "group": group,
        }
        store.close_level(rows, sel, meta)
    return store


def _first_fresh(rows, order, seen):
    """Ascending positions in ``order`` of the first candidate of each exact
    row not in ``seen`` (None before the seed level), and ``seen`` grown by
    those rows' keys.  A row's key is (A, B, num, den): the raw bytes of an
    int64 row, a tuple of python ints otherwise.  Exact rows are equal
    exactly when their keys are."""
    import numpy as np

    K = np.concatenate([rows["A"], rows["B"], rows["num"][:, None], rows["den"][:, None]], axis=1)
    if K.dtype == object:
        seen = set() if seen is None else seen
        first = []
        for pos, key in enumerate(map(tuple, K[order].tolist())):
            if key not in seen:
                seen.add(key)
                first.append(pos)
        return np.array(first, dtype=np.int64), seen
    keys = np.ascontiguousarray(K).view(np.dtype((np.void, K.shape[1] * 8))).ravel()
    if seen is None:
        seen = keys[:0]
    uniq, first = np.unique(keys[order], return_index=True)
    if len(seen):
        pos = np.minimum(np.searchsorted(seen, uniq), len(seen) - 1)
        fresh = seen[pos] != uniq
        uniq, first = uniq[fresh], first[fresh]
    return np.sort(first), np.sort(np.concatenate([seen, uniq]))


def _exact_cluster(seed: BallArrangement, maps, depth: int, dtype=None) -> _Store:
    """Exact closure on integer rows: int64 arrays unless a level could
    overflow, then the whole run again on python ints (``dtype=object``).

    Seed balls and generator matrices enter in ``exactnum``'s row form, as
    they keep it (:func:`lorentz.row_of`).
    Each generator's num is folded back into its integer matrix, which
    leaves the matrix over den_g, the lcm of its entries' denominators (the
    content of reduced fractions put over their lcm is prime to it), so a
    child's den is its parent's times den_g before reduction.
    """
    import numpy as np

    nb = seed.dimension + 2
    seed_rows = [row_of(b) for b in seed.balls]
    gen_rows = [row_of(g) for g in maps]
    m = one_field(*(r[4] for r in seed_rows + gen_rows))
    mats_int = [([a * num for a in A], [b * num for b in B]) for A, B, num, _, _ in gen_rows]
    den_gens = [den for *_, den, _ in gen_rows]

    # worst growth of any coordinate across one application of any generator
    factor = 1
    for A, B in mats_int:
        for i in range(0, nb * nb, nb):
            fa = sum(map(abs, A[i : i + nb]))
            fb = sum(map(abs, B[i : i + nb]))
            factor = max(factor, fa + m * fb, fa + fb)
    args = (seed_rows, mats_int, den_gens, m, depth, nb, factor)
    if dtype is None:
        try:
            return _exact_rows(*args, np.int64)
        except (_NeedsBigInts, OverflowError):
            dtype = object
    return _exact_rows(*args, dtype)


class _NeedsBigInts(Exception):
    """Raised when a level could overflow int64; retried with python ints."""


def _exact_rows(seed_rows, mats_int, den_gens, m, depth, nb, factor, dtype) -> _Store:
    """Exact rows (A + B sqrt m) * num / den, with A, B, num, den arrays,
    from the seed's :func:`exactnum.exact_row` results and each generator's
    integer matrices A_g, B_g (flat, row by row) over den_g, kept in the
    word order of :func:`_grow`.

    Before each int64 level a one-step lookahead checks that no product can
    reach 2^63, and raises _NeedsBigInts if one could.
    """
    import numpy as np

    i64 = dtype is not object
    limit = 2**63
    if i64 and (
        any(abs(x) >= limit for A, B, num, den, _ in seed_rows for x in (*A, *B, num, den))
        or any(abs(x) >= limit for A, B in mats_int for x in (*A, *B))
    ):
        raise _NeedsBigInts
    rows0 = {
        name: np.array([r[j] for r in seed_rows], dtype=dtype)
        for j, name in enumerate(("A", "B", "num", "den"))
    }
    Ma = [np.array(A, dtype=dtype).reshape(nb, nb) for A, _ in mats_int]
    Mb = [np.array(B, dtype=dtype).reshape(nb, nb) for _, B in mats_int]
    dg_arr = np.array(den_gens, dtype=dtype)
    G = len(mats_int)

    def expand(prev):
        A, B, n = prev["A"], prev["B"], prev["n"]
        if i64:
            max_p = max(int(np.abs(A).max()), int(np.abs(B).max()), 1)
            if (
                max_p * factor >= limit
                or int(prev["num"].max()) * max_p * factor >= limit
                or int(prev["den"].max()) * max(den_gens) >= limit
            ):
                raise _NeedsBigInts
        Acat = np.concatenate(
            [A @ Ma[g].T + (m * (B @ Mb[g].T) if m else 0) for g in range(G)], axis=0
        )
        Bcat = np.concatenate([A @ Mb[g].T + B @ Ma[g].T for g in range(G)], axis=0)
        Y = np.concatenate([Acat, Bcat], axis=1)
        content = np.gcd.reduce(np.abs(Y), axis=1)
        P = Y // content[:, None]
        num = np.tile(prev["num"], G) * content
        den = np.tile(prev["den"], G) * np.repeat(dg_arr, n)
        shrink = np.gcd(num, den)
        return {"A": P[:, :nb], "B": P[:, nb:], "num": num // shrink, "den": den // shrink}

    store = _Store("i64" if i64 else "obj", m)
    return _grow(store, rows0, expand, _first_fresh, depth, G)


def _float_cluster(seed: BallArrangement, mats, depth: int) -> _Store:
    """Float closure, deduplicated by _window_fresh.  A level whose rows are
    not all finite (the products overflowed) is refused, naming its depth."""
    import numpy as np

    V0 = np.array([[float(approx(x)) for x in b.v] for b in seed.balls], dtype=np.float64)
    M = [np.array([[float(approx(x)) for x in r] for r in mt], dtype=np.float64) for mt in mats]
    store = _Store("float", 0)

    def expand(prev):
        with np.errstate(over="ignore", invalid="ignore"):
            V = np.concatenate([prev["V"] @ Mg.T for Mg in M], axis=0)
        if not np.isfinite(V).all():
            raise ValueError(f"float coordinates overflow at depth {len(store.levels)}")
        return {"V": V}

    return _grow(store, {"V": V0}, expand, _window_fresh, depth, len(M))


def _window_fresh(rows, order, seen):
    """_first_fresh for float rows: two rows are one ball when every
    coordinate agrees within FLOAT_REL * max(1, |row|inf), as in
    lorentz.same_vector.  Such rows have values under the fixed generic
    functional f within sum|w| times that (doubled for slack), so only rows
    inside that window are compared.  ``seen`` holds the kept rows so far,
    their f values sorted, and the rows' indices in that order.
    """
    import numpy as np

    cand = rows["V"][order]
    w = np.sqrt(np.arange(2, cand.shape[1] + 2))  # fixed, with irrational ratios
    f = cand @ w
    tol = FLOAT_REL * np.maximum(1.0, np.abs(cand).max(axis=1))
    s = np.argsort(f, kind="stable")  # only candidates are sorted; seen is merged
    reach = 2 * w.sum() * tol[s]
    seen_v, seen_f, seen_i = seen if seen is not None else (cand[:0], f[:0], s[:0])

    def same(f_sorted, lo, row_at):  # (candidate, position) of equal rows in f_sorted[lo:]
        n = np.searchsorted(f_sorted, f[s] + reach, "right") - lo
        c, p = s.repeat(n), (lo - n.cumsum() + n).repeat(n) + np.arange(n.sum())
        other = row_at(p)
        t = np.maximum(tol[c], FLOAT_REL * np.abs(other).max(axis=1))
        eq = (np.abs(cand[c] - other) <= t[:, None]).all(1)
        return c[eq], p[eq]

    dup = np.zeros(len(cand), dtype=bool)
    c, p = same(f[s], np.arange(1, s.size + 1), lambda p: cand[s[p]])  # later in f order
    dup[np.maximum(c, s[p])] = True
    lo = np.searchsorted(seen_f, f[s] - reach, "left")
    dup[same(seen_f, lo, lambda p: seen_v[seen_i[p]])[0]] = True
    kept = s[~dup[s]]  # in f order: the merge joins two sorted runs
    all_f = np.concatenate([seen_f, f[kept]])
    m = np.argsort(all_f, kind="stable")
    all_i = np.concatenate([seen_i, len(seen_v) + np.arange(kept.size)])
    return np.nonzero(~dup)[0], (np.concatenate([seen_v, cand[kept]]), all_f[m], all_i[m])


# -- cluster predicates -----------------------------------------------------------


def is_apollonian_packing(c: Cluster) -> bool:
    """True iff all cluster balls are pairwise tangent or disjoint.

    A float screen over all pairs (:func:`packings.pair_screen`) proves most
    of them disjoint, and ``classify_pair`` decides the few near tangency,
    about three per ball; the screen is still quadratic, in float products.
    """
    return first_overlap([e.ball for e in c]) is None


def orbit_coloring(c: Cluster) -> dict:
    """Ball -> index of the seed ball whose orbit contains it.

    Only meaningful for the dual-inversion flavor, where distinct seed balls
    have disjoint orbits.
    """
    if c.flavor != FLAVOR_DUAL:
        raise ValueError("orbit coloring needs a dual-inversion cluster")
    return {e.ball: e.orbit for e in c}


# -- the perfect-square walk -------------------------------------------------------


def perfect_square_sequence(p: int, n_max: int) -> list:
    """Balls b_0, ..., b_{n_max} of one packing orbit with curvature exactly n^2.

    The standard triangular-faced packing with p balls around a face is
    rescaled by lambda = 4 cos^2(pi/p), so the marked tangent pair becomes
    the half-planes {y <= -lambda} and {y >= lambda}.  Conjugating n
    alternating vertical-mirror steps by the inversion in the rescaled edge
    circle then lands on a ball of curvature n^2; everything stays in the
    field hosting sqrt(lambda).
    """
    if p not in (3, 4, 5):
        raise ValueError("p must be 3, 4 or 5")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    c = exact_sqrt(4 * COS2[p])  # 2cos(pi/p)
    lam = c * c
    edge = inversion_map(
        ball_from_geometry(2, center=(0, -lam), curvature=ratio(1, 2 * c))
    )
    step = _mirror_x(-c) @ inversion_map(Ball((1, 0, 0, 0)))
    start = ball_from_geometry(2, normal=(0, 1), offset=lam)
    out = []
    walk = MobiusMap.identity(2)
    for n in range(n_max + 1):
        out.append((n, apply_map(edge @ walk @ edge, start)))
        walk = walk @ step
    return out
