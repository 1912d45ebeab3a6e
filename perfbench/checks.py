"""Output checks of the benchmark, computed apart from the program.

Every check raises CheckFailed with a message when the output disagrees
with a closed form, with the paper's claims, or with a property the method
must have.  Exact values are handled with this module's own arithmetic in
Q(sqrt m): a scalar is a pair (a, b) of Fractions meaning a + b*sqrt(m), and
the modulus m travels alongside.  Only the word check borrows the program's
``apply_map``, as the re-derivation it checks is defined through it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

RING_Z = "Z"
RING_Z_SQRT2 = "Z[sqrt2]"
RING_Z_PHI = "Z[phi]"

# (vertices, facets, vertices per facet) of the five Platonic solids
FACE_COUNTS = {
    "tetrahedron": (4, 4, 3),
    "octahedron": (6, 8, 3),
    "cube": (8, 6, 4),
    "icosahedron": (12, 20, 3),
    "dodecahedron": (20, 12, 5),
}


class CheckFailed(Exception):
    """An output of the program disagrees with what the check expects."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- closed forms -------------------------------------------------------------


def level_sizes(solid: str, depth: int) -> list:
    """Balls per level of the dual-inversion cluster of a Platonic seed.

    Level 0 holds the V seed balls.  Facet inversion f fixes the v_f balls
    on facet f and moves the V - v_f others, so level 1 holds F*(V - v_f);
    from then on each ball has F - 1 non-backtracking children, all new.
    """
    v, f, vf = FACE_COUNTS[solid]
    sizes = [v]
    if depth >= 1:
        sizes.append(f * (v - vf))
    while len(sizes) <= depth:
        sizes.append(sizes[-1] * (f - 1))
    return sizes


def cluster_size(solid: str, depth: int) -> int:
    return sum(level_sizes(solid, depth))


def flag_count(kind: str, n: int) -> int:
    """Order of the symmetry group of a regular polytope = its flag count."""
    if kind == "simplex":
        return math.factorial(n + 1)
    if kind in ("cube", "orthoplex"):
        return 2**n * math.factorial(n)
    if kind in ("icosahedron", "dodecahedron"):
        return 120
    raise ValueError(f"no flag count for {kind}")


# -- exact scalars in Q(sqrt m) ------------------------------------------------

_SCALAR = re.compile(
    r"^([+-]?\d+)(?:/(\d+))?(?:([+-])(\d+)(?:/(\d+))?√(\d+))?$"
)


def parse_scalar(text: str) -> tuple:
    """"a/b+c/d√m" -> (a/b, c/d, m); m is 0 for a rational value."""
    mt = _SCALAR.match(text)
    require(mt is not None, f"malformed exact scalar {text!r}")
    a = Fraction(int(mt[1]), int(mt[2] or 1))
    if mt[6] is None:
        return a, Fraction(0), 0
    b = Fraction(int(mt[4]), int(mt[5] or 1))
    return a, (-b if mt[3] == "-" else b), int(mt[6])


def format_scalar(x, m: int) -> str:
    """Inverse of parse_scalar for a pair (a, b) in Q(sqrt m)."""

    def frac(f: Fraction) -> str:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    a, b = x
    if not b:
        return frac(a)
    return frac(a) + ("+" if b > 0 else "-") + frac(abs(b)) + f"√{m}"


def program_scalar(x) -> tuple:
    """(a, b, m) of an exact program value: int, Fraction or a + b*sqrt(m)."""
    if hasattr(x, "m"):
        return Fraction(x.a), Fraction(x.b), (x.m or 0)
    require(not isinstance(x, float), f"float value {x!r} where exact was due")
    return Fraction(x), Fraction(0), 0


def join_modulus(values) -> int:
    m = 0
    for _, b, mm in values:
        if b:
            require(m in (0, mm), f"values mix Q(√{m}) and Q(√{mm})")
            m = mm
    return m


def q_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def q_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def q_mul(x, y, m: int):
    return x[0] * y[0] + m * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def q_float(x, m: int) -> float:
    return float(x[0]) + float(x[1]) * math.sqrt(m)


def lorentz_norm(vec, m: int):
    """<x, x> = x_1^2 + ... + x_{n-1}^2 - x_n^2 of a vector of pairs."""
    total = (Fraction(0), Fraction(0))
    for x in vec[:-1]:
        total = q_add(total, q_mul(x, x, m))
    return q_sub(total, q_mul(vec[-1], vec[-1], m))


def in_ring(x, ring: str, m: int) -> bool:
    a, b = x
    if not b:
        return a.denominator == 1
    if ring == RING_Z_SQRT2 and m == 2:
        return a.denominator == 1 and b.denominator == 1
    if ring == RING_Z_PHI and m == 5:
        # a + b*sqrt5 = (a - b) + 2b*phi
        return (a - b).denominator == 1 and (2 * b).denominator == 1
    return False


def _ring_coords(x, m: int) -> list:
    """Coordinates of a + b*sqrt(m) over the ring's Z-basis: 1, sqrt2 or 1, phi."""
    a, b = x
    if m == 5:
        return [a - b, 2 * b]  # a + b*sqrt5 = (a - b) + 2b*phi
    return [a, b] if m else [a]


def _from_ring_coords(c, m: int) -> tuple:
    if m == 5:
        return c[0] + c[1] / 2, c[1] / 2
    return (c[0], c[1]) if m else (c[0], Fraction(0))


def _times_omega(x, m: int) -> tuple:
    """x * sqrt2 (m = 2) or x * phi (m = 5)."""
    a, b = x
    if m == 2:
        return 2 * b, a
    return (a + 5 * b) / 2, (a + b) / 2


def lattice_basis(vectors) -> list:
    """Echelon basis of the Z-lattice spanned by rational vectors."""
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    for col in range(len(rows[0]) if rows else 0):
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        while len(live) > 1:  # Euclid on the column
            live.sort(key=lambda r: abs(r[col]))
            pivot, reduced = live[0], [live[0]]
            for r in live[1:]:
                q = r[col] // pivot[col]
                r = [x - q * y for x, y in zip(r, pivot)]
                (reduced if r[col] != 0 else rest).append(r)
            live = reduced
        basis += live
        rows = [r for r in rest if any(r)]
    return basis


def in_lattice(v, basis) -> bool:
    v = list(v)
    for b in basis:
        col = next(i for i, x in enumerate(b) if x != 0)
        q = v[col] / b[col]
        if q.denominator != 1:
            return False
        v = [x - q * y for x, y in zip(v, b)]
    return not any(v)


def invariant_ring(matrices, seeds, rounds: int = 20) -> str:
    """Ring certified for every curvature of the closure of seeds under maps.

    The R-module spanned by the seed vectors is grown by the images under
    every matrix until it stops changing.  If it then has all coordinates
    in R (Z, Z[sqrt2] or Z[phi], by the field of the entries), every ball of
    the closure lies in it, so every curvature lies in R.  Matrix entries
    and seed coordinates are program values.
    """
    mats = [[[program_scalar(x) for x in row] for row in mat] for mat in matrices]
    vecs = [[program_scalar(x) for x in v] for v in seeds]
    m = join_modulus([x for mat in mats for row in mat for x in row] + [x for v in vecs for x in v])
    mats = [[[x[:2] for x in row] for row in mat] for mat in mats]

    def flat(v):
        return [c for x in v for c in _ring_coords(x, m)]

    def unflat(c):
        k = 2 if m else 1
        return [_from_ring_coords(c[i : i + k], m) for i in range(0, len(c), k)]

    def module_generators(v):
        return [flat(v), flat([_times_omega(x, m) for x in v])] if m else [flat(v)]

    def apply(mat, v):
        out = []
        for row in mat:
            total = (Fraction(0), Fraction(0))
            for a, x in zip(row, v):
                total = q_add(total, q_mul(a, x, m))
            out.append(total)
        return out

    basis = lattice_basis([g for v in vecs for g in module_generators([x[:2] for x in v])])
    for _ in range(rounds):
        # the module only grows, so a coordinate outside R stays outside
        require(
            all(x.denominator == 1 for b in basis for x in b),
            "the module of the closure has coordinates outside the ring",
        )
        images = [g for b in basis for mat in mats for g in module_generators(apply(mat, unflat(b)))]
        if all(in_lattice(w, basis) for w in images):
            return {0: RING_Z, 2: RING_Z_SQRT2, 5: RING_Z_PHI}[m]
        basis = lattice_basis(basis + images)
    raise CheckFailed("the seed module does not close under the generators")


# -- certify ------------------------------------------------------------------


def check_levels(depth_of, n: int, solid: str, depth: int) -> None:
    """A depth-ordered cluster of n entries has the closed-form level sizes.

    ``depth_of(i)`` is the depth of entry i.  Entries are ordered by depth,
    so the depths on both sides of every closed-form level boundary pin the
    level sizes.
    """
    sizes = level_sizes(solid, depth)
    require(n == sum(sizes), f"{solid} depth {depth}: {n} balls, closed form {sum(sizes)}")
    end = 0
    for k, size in enumerate(sizes):
        end += size
        require(depth_of(end - 1) == k, f"{solid}: entry {end - 1} is not at depth {k}")
        if end < n:
            require(depth_of(end) == k + 1, f"{solid}: entry {end} is not at depth {k + 1}")


def check_word(seed_ball, word, maps, entry_vector, entry_curvature, depth, apply_map) -> None:
    """Re-derive an entry from its word and compare it exactly.

    ``word`` lists generator names in the order they were applied to the
    orbit's seed ball; ``maps`` takes a name to its Mobius map.
    """
    require(len(word) == depth, f"word {word} has length {len(word)}, depth {depth}")
    require(
        all(a != b for a, b in zip(word, word[1:])),
        f"word {word} repeats a generator back to back",
    )
    ball = seed_ball
    for name in word:
        ball = apply_map(maps[name], ball)
    got = [program_scalar(x) for x in ball.v]
    want = [program_scalar(x) for x in entry_vector]
    require(
        [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in want],
        f"word {word} does not reproduce the entry's vector",
    )
    kappa = q_sub(got[-1][:2], got[-2][:2])
    require(
        kappa == program_scalar(entry_curvature)[:2],
        f"word {word} does not reproduce the entry's curvature",
    )


def check_ring(value, ring: str) -> None:
    """An exact program value lies in the ring."""
    a, b, m = program_scalar(value)
    require(in_ring((a, b), ring, m), f"curvature {a}+{b}√{m} is not in {ring}")


def check_integrality_output(rc: int, out: str, ring: str, depth: int, n: int) -> None:
    want_cert = "integral" if ring == RING_Z else "phi-integral"
    require(rc == 0, f"integrality exited {rc}")
    require(f"certificate: {want_cert}\n" in out, f"certificate is not {want_cert}: {out!r}")
    line = f"depth-{depth} curvatures in {ring}: yes ({n} balls)"
    require(line in out, f"expected {line!r} in {out!r}")


# -- documents ----------------------------------------------------------------


def check_exact_entry(raw: dict) -> None:
    """Inversive coordinates are a unit vector and agree with the stored
    curvature, center and radius (or half-space normal and offset)."""
    parsed = [parse_scalar(t) for t in raw["inversive"]]
    m = join_modulus(parsed)
    vec = [(a, b) for a, b, _ in parsed]
    one = (Fraction(1), Fraction(0))
    require(lorentz_norm(vec, m) == one, f"Lorentz norm of {raw['inversive']} is not 1")
    kappa = q_sub(vec[-1], vec[-2])
    stored = parse_scalar(raw["curvature"])
    require(stored[:2] == kappa, f"curvature {raw['curvature']} disagrees with inversive")
    d = len(vec) - 2
    if "halfspace" in raw:
        require(kappa == (0, 0), "half-space entry has nonzero curvature")
        normal = [parse_scalar(t)[:2] for t in raw["halfspace"]["normal"]]
        offset = parse_scalar(raw["halfspace"]["offset"])[:2]
        require(normal == vec[:d], "half-space normal disagrees with inversive")
        require(offset == vec[d] == vec[d + 1], "half-space offset disagrees with inversive")
        return
    center = [parse_scalar(t)[:2] for t in raw["center"]]
    require(
        [q_mul(c, kappa, m) for c in center] == vec[:d],
        "center times curvature disagrees with inversive",
    )
    radius = parse_scalar(raw["radius"])[:2]
    abs_kappa = kappa if q_float(kappa, m) > 0 else q_sub((0, 0), kappa)
    require(q_mul(radius, abs_kappa, m) == one, "radius is not 1/|curvature|")


def depth_counts(entries) -> list:
    counts = []
    for e in entries:
        k = e["depth"]
        require(k >= len(counts) - 1, "entries are not ordered by depth")
        while len(counts) <= k:
            counts.append(0)
        counts[k] += 1
    return counts


def check_float_twin(float_entries, exact_levels, rel: float) -> None:
    """Sorted float curvatures of each depth match the exact twin's.

    ``exact_levels`` holds the exact curvatures of each depth as floats.
    """
    levels = [[] for _ in exact_levels]
    for e in float_entries:
        require(e["depth"] < len(levels), f"float entry at depth {e['depth']} beyond the twin")
        levels[e["depth"]].append(float(e["curvature"]))
    for k, (got, want) in enumerate(zip(levels, exact_levels)):
        require(len(got) == len(want), f"depth {k}: {len(got)} float balls, exact {len(want)}")
        for g, w in zip(sorted(got), sorted(want)):
            require(
                abs(g - w) <= rel * max(1.0, abs(w)),
                f"depth {k}: float curvature {g} vs exact {w}",
            )


def check_svg(svg: str, entries) -> None:
    """One <circle> or <path> per disk entry, at most one polygon per half-space."""
    disks = sum(1 for e in entries if "center" in e)
    halfspaces = len(entries) - disks
    drawn = svg.count("<circle ") + svg.count("<path ")
    require(drawn == disks, f"{drawn} disk elements for {disks} disk entries")
    require(svg.count("<polygon ") <= halfspaces, "more polygons than half-spaces")


# -- verify -------------------------------------------------------------------

_PACKING_OK = re.compile(r"^packing: ok \((\d+) balls, (\d+) pairs\)$", re.M)
_FLAGS_OK = re.compile(r"^flags: ok \((\d+) flags,", re.M)
_DESCARTES_OK = re.compile(r"^descartes: ok \((\d+) windows,", re.M)
_PACKING_FAILED = re.compile(r"^packing: FAILED \(balls (\d+) and (\d+) are \w+\)$", re.M)


def check_verify_output(rc: int, out: str, n: int, flags=None) -> None:
    """``verify`` with every check accepted an n-ball document."""
    require(rc == 0, f"verify exited {rc}: {out!r}")
    mt = _PACKING_OK.search(out)
    require(mt is not None, f"no packing line in {out!r}")
    require(int(mt[1]) == n, f"packing saw {mt[1]} balls, document has {n}")
    require(int(mt[2]) == n * (n - 1) // 2, f"packing checked {mt[2]} pairs of {n} balls")
    if flags is not None:
        mt = _FLAGS_OK.search(out)
        require(mt is not None, f"no flags line in {out!r}")
        require(int(mt[1]) == flags, f"{mt[1]} flags, group order {flags}")


def check_descartes_output(rc: int, out: str) -> None:
    """``verify --checks descartes,soddy`` passed with some windows checked."""
    require(rc == 0, f"verify exited {rc}: {out!r}")
    mt = _DESCARTES_OK.search(out)
    require(mt is not None and int(mt[1]) > 0, f"no Descartes windows checked: {out!r}")


def check_planted_output(rc: int, out: str, planted: int) -> None:
    """``verify`` rejected the document with the planted overlapping ball."""
    require(rc == 1, f"verify exited {rc} on the planted document")
    mt = _PACKING_FAILED.search(out)
    require(mt is not None, f"no packing failure in {out!r}")
    require(planted in (int(mt[1]), int(mt[2])), f"failure names no planted ball: {mt[0]}")
