"""JSON documents for ball arrangements and clusters.

A document is a flat, diffable description of one arrangement: global
metadata (dimension, numeric mode, solid tag, seed description) plus one
entry per ball: its inversive coordinates and its cluster provenance
(depth, word, orbit); the vector is the ball.  In memory a document keeps
the balls in the layout of a cluster's store, one row per ball: an exact
row in the canonical form that ``exactnum`` defines, and a float row as a
float64 vector.  Every layer works on the rows: the writer prints each
scalar's canonical text straight from the integers, the loader parses the
text into rows, :meth:`PackingDocument.balls` checks every Lorentz norm on
them and makes a ball only when a check reads it, an exact one born with
its row, and ``svgout.render_svg`` and ``packings.pair_screen`` take their
floats from the rows as ``exactnum.quad_float`` computes them, in
correctly rounded int division.  :class:`lorentz.Entry` objects are built
only on demand (:attr:`PackingDocument.entries`).

The writer adds each ball's curvature and Euclidean geometry
(``center``/``radius``, or a ``halfspace`` normal and offset) for readers
of the file.  The loader checks the JSON type of every field, and requires
the derived ones to be present and well-formed, but never reads their
values: every consumer derives them from ``inversive``.  Float documents
store plain JSON numbers, which round-trip bit-exactly through the
shortest decimal representation; exact documents store every scalar as a
string "a/b" or "a/b+c/d√m" in lowest terms.

Both directions work on blocks of :data:`BLOCK` entries, not on one scalar
at a time.  The loader checks a block's JSON types in one pass over its
entries, the grammar of its scalar texts with one regex over their
newline-joined text, and makes the block's canonical rows at once
(``exactnum.exact_rows``); each block's parsed JSON is freed as its rows
are made.  Only a block that these checks refuse is walked entry by entry
(:func:`_check_entry`), to name its first fault.  The writer derives
curvature and geometry a block at a time in one column pass
(:func:`derived_rows`), reduces each column of fractions with ``np.gcd``,
and prints each entry through one template.
"""

from __future__ import annotations

import gc
import json
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import NamedTuple, Optional

import numpy as np

from .exactnum import FLOAT_REL, exact_rows, field_modulus, is_float_data, scalar_parts
from .lorentz import Ball, Entry, ball_from_row, lorentz_product

RADICAL = "√"

MODE_FLOAT = "float"

# An exact scalar travels between the layers as its ``exactnum`` parts (pa,
# qa, pb, qb), m being the document's field modulus; neither fraction needs
# to be reduced.


def scalar_to_text(x) -> str:
    """Canonical exact string: "a", "a/b", or "a/b±c/d√m" in lowest terms."""
    *quad, m = scalar_parts(x)
    return _exact_texts(tuple(np.array([p], dtype=object) for p in quad), m)[0]


# One exact scalar's text a line, ASCII digits only; the groups are (an,
# ad, bn, bd, m), bn with its sign.  Texts are read newline-joined, one
# scalar a line: every line is a scalar when the matches and the lines are
# equally many.
_LINES_RE = re.compile(
    r"^([+-]?[0-9]+)(?:/([0-9]+))?(?:([+-][0-9]+)(?:/([0-9]+))?√([0-9]+))?(?:\n|\Z)", re.M
)
_ZERO_DENOMINATOR_RE = re.compile(r"/0+(?![0-9])")


def _scalar_match(s: str) -> tuple:
    """The groups (an, ad, bn, bd, m) of a well-formed scalar's text."""
    found = () if "\n" in s else _LINES_RE.findall(s)
    if len(found) != 1:
        raise ValueError(f"malformed exact scalar {s!r}")
    if "/0" in s and _ZERO_DENOMINATOR_RE.search(s):
        raise ValueError(f"zero denominator in {s!r}")
    return found[0]


def _parse(s: str) -> tuple:
    """(pa, qa, pb, qb, m) of a scalar's text; m = 0 when its radical part
    is absent or zero, and otherwise a square-free integer > 1."""
    an, ad, bn, bd, m = _scalar_match(s)
    pa, qa, pb, qb, m = int(an), int(ad or 1), int(bn or 0), int(bd or 1), int(m or 0)
    if not pb:
        return pa, qa, 0, 1, 0
    return pa, qa, pb, qb, field_modulus(m)


def _float_scalar(x) -> float:
    """A float document's stored scalar, checked to be a finite number."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValueError(f"float document holds a non-number {x!r}")
    try:
        value = float(x)
    except OverflowError:  # an integer beyond the float range
        value = math.inf if x > 0 else -math.inf
    if not math.isfinite(value):
        raise ValueError(f"float document holds a non-finite number {value!r}")
    return value


def _exact_scalar(x, read: bool = True) -> tuple:
    """The (pa, qa, pb, qb, m) of an exact document's stored scalar; with
    ``read=False`` it is only checked to be a well-formed text."""
    if not isinstance(x, str):
        raise ValueError(f"exact document holds a non-string scalar {x!r}")
    return _parse(x) if read else _scalar_match(x)


# -- the row layout -------------------------------------------------------------


def _exact_mode(m: int) -> str:
    return f"Q({RADICAL}{m})" if m else "Q"


class _Balls(Sequence):
    """A document's balls, each made when a check first reads it."""

    def __init__(self, doc: "PackingDocument"):
        self._doc = doc
        self._built = [None] * len(doc)

    def __len__(self):
        return len(self._built)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        ball = self._built[i]
        if ball is None:
            ball = self._built[i] = self._doc.ball(i)
        return ball


@dataclass(frozen=True, eq=False)
class PackingDocument:
    """Serializable snapshot of a ball arrangement or cluster.

    ``rows`` holds one row per ball: "A" and "B" (object arrays of python
    ints, n x (d+2)) and "num" and "den" (n) in exact documents, over the
    field Q(sqrt m) (m = 0 for Q); "V" (float64, n x (d+2)) in float ones.
    ``depth``, ``word`` and ``orbit`` hold each ball's provenance.
    """

    dimension: int
    mode: str
    solid: Optional[str]
    seed: dict
    rows: dict
    depth: tuple = ()
    word: tuple = ()
    orbit: tuple = ()
    m: int = 0

    def __post_init__(self):
        n = len(self.depth)
        if len(self.word) != n or len(self.orbit) != n or any(len(x) != n for x in self.rows.values()):
            raise ValueError("a document's rows, depths, words and orbits differ in length")

    @property
    def is_float(self) -> bool:
        return self.mode == MODE_FLOAT

    def __len__(self) -> int:
        return len(self.depth)

    def __eq__(self, other):
        if not isinstance(other, PackingDocument):
            return NotImplemented
        meta = lambda d: (d.dimension, d.mode, d.solid, d.seed, d.depth, d.word, d.orbit, d.m)
        return (
            meta(self) == meta(other)
            and self.rows.keys() == other.rows.keys()
            and all(np.array_equal(self.rows[k], other.rows[k]) for k in self.rows)
        )

    __hash__ = None

    def ball(self, i: int) -> Ball:
        """Ball i, its norm unchecked: a float one from its vector, an exact
        one born with its ``exactnum.exact_row`` (:func:`lorentz.ball_from_row`)."""
        if self.is_float:
            return Ball(tuple(self.rows["V"][i].tolist()), _checked=True)
        r, B = self.rows, self.rows["B"][i].tolist()
        m = self.m if any(B) else 0
        return ball_from_row((r["A"][i].tolist(), B, r["num"][i], r["den"][i], m))

    def vector(self, i: int) -> tuple:
        """The inversive vector of ball i: floats, or Fractions and QuadScalars."""
        return self.ball(i).v

    @property
    def entries(self) -> tuple:
        """The balls as :class:`lorentz.Entry` objects, built on each call."""
        return tuple(
            Entry(self.vector(i), depth=k, word=w, orbit=o)
            for i, (k, w, o) in enumerate(zip(self.depth, self.word, self.orbit))
        )

    def balls(self) -> Sequence:
        """The balls, after a check that every row has Lorentz norm 1.

        Exact rows (A + B sqrt m) num/den pass when sum'(a^2 + m b^2) num^2 =
        den^2 and sum'(a b) = 0, sum' being the Lorentz form; float rows take
        ``Ball``'s own test, in its order of operations.  The first row that
        fails raises the error ``Ball`` raises for it.  Each ball is built
        only when read.
        """
        if len(self):
            ok = _float_norms_ok(self.rows["V"]) if self.is_float else _exact_norms_ok(self.rows, self.m)
            bad = np.flatnonzero(~ok)
            if bad.size:
                Ball(self.vector(int(bad[0])))  # raises
        return _Balls(self)


def _exact_norms_ok(rows: dict, m: int) -> np.ndarray:
    A, B, num, den = rows["A"], rows["B"], rows["num"], rows["den"]
    rational = (lorentz_product(A.T, A.T) + m * lorentz_product(B.T, B.T)) * num * num == den * den
    return (rational & (lorentz_product(A.T, B.T) == 0)).astype(bool)


def _float_norms_ok(V: np.ndarray) -> np.ndarray:
    """``exactnum.compare(n, 1, product_scale)`` for each row's norm n."""
    d = lorentz_product(V.T, V.T) - 1
    scale = np.abs(V[:, 0] * V[:, 0])
    for j in range(1, V.shape[1]):
        scale = scale + np.abs(V[:, j] * V[:, j])
    tol = FLOAT_REL * np.maximum(1.0, scale)
    return ~np.isnan(d) & ~np.isinf(tol) & (np.abs(d) <= tol)


def first_difference(doc: PackingDocument, other: PackingDocument) -> Optional[int]:
    """The first entry at which two documents of the same length differ in
    vector, depth, word or orbit, or None.  Exact vectors must be equal;
    float ones count as equal when every coordinate agrees within FLOAT_REL
    max(1, largest coordinate of the two), as in ``lorentz.same_vector``.
    Documents of different modes differ at their first entry."""
    if doc.is_float != other.is_float:
        return 0 if len(doc) else None
    if doc.is_float:
        U, W = doc.rows["V"], other.rows["V"]
        size = np.maximum(np.abs(U).max(axis=1, initial=0.0), np.abs(W).max(axis=1, initial=0.0))
        tol = FLOAT_REL * np.maximum(1.0, size)
        with np.errstate(over="ignore", invalid="ignore"):
            differs = ~(np.abs(U - W) <= tol[:, None]).all(axis=1)
    elif doc.rows["A"].shape != other.rows["A"].shape:
        return 0 if len(doc) else None
    else:
        differs = np.zeros(len(doc), dtype=bool)
        for k in ("A", "B", "num", "den"):
            x, y = doc.rows[k], other.rows[k]
            differs |= (x != y).reshape(len(doc), -1).any(axis=1).astype(bool)
        if doc.m != other.m:  # an irrational row of one lies in the other's field
            differs |= (doc.rows["B"] != 0).any(axis=1).astype(bool)
    for name in ("depth", "word", "orbit"):
        a, b = getattr(doc, name), getattr(other, name)
        if a != b:
            differs |= np.fromiter((x != y for x, y in zip(a, b)), dtype=bool, count=len(doc))
    hit = np.flatnonzero(differs)
    return int(hit[0]) if hit.size else None


# -- building documents ----------------------------------------------------------


def document_from_entries(dimension: int, entries, *, solid=None, seed=None) -> PackingDocument:
    """Document of :class:`lorentz.Entry` objects, in order: float if any
    scalar is a float, exact otherwise."""
    entries = tuple(entries)
    width = dimension + 2
    if any(len(e.inversive) != width for e in entries):
        raise ValueError(f"an entry has not {width} coordinates")
    scalars = [x for e in entries for x in e.inversive]
    if is_float_data(scalars):
        V = np.array([float(x) for x in scalars], dtype=np.float64)
        bad = V[~np.isfinite(V)]
        if bad.size:
            raise ValueError(f"float document holds a non-finite number {float(bad[0])!r}")
        rows, mode, m = {"V": V.reshape(-1, width)}, MODE_FLOAT, 0
    else:
        *parts, moduli = zip(*map(scalar_parts, scalars)) if scalars else ((),) * 5
        fields = set(moduli) - {0}
        if len(fields) > 1:
            raise ValueError("document mixes quadratic fields")
        rows, m = exact_rows(parts, width), max(fields, default=0)
        mode = _exact_mode(m)
    provenance = ((e.depth for e in entries), (e.word for e in entries), (e.orbit for e in entries))
    return PackingDocument(dimension, mode, solid, dict(seed or {}), rows, *map(tuple, provenance), m)


def document_from_arrangement(arr, *, solid=None, seed=None) -> PackingDocument:
    """Depth-0 document of an arrangement, one entry per ball in order."""
    entries = (Entry(b.v, orbit=i) for i, b in enumerate(arr.balls))
    return document_from_entries(arr.dimension, entries, solid=solid, seed=seed)


def document_from_cluster(cluster, *, solid=None, seed=None) -> PackingDocument:
    """Document of a cluster: its store's rows, in entry order."""
    rows = cluster.rows()
    m = 0
    if "V" in rows:
        mode, data = MODE_FLOAT, {"V": rows["V"]}
    else:
        data = {k: rows[k].astype(object) for k in ("A", "B", "num", "den")}
        if (data["B"] != 0).any():
            m = rows["m"]
        mode = _exact_mode(m)
    return PackingDocument(
        cluster.seed.dimension,
        mode,
        solid,
        dict(seed or {}),
        data,
        tuple(rows["depth"].tolist()),
        tuple(rows["word"]),
        tuple(rows["orbit"].tolist()),
        m,
    )


# -- derived geometry ------------------------------------------------------------


def _sign(x: np.ndarray) -> np.ndarray:
    """Elementwise sign of an object array of ints, as int64."""
    return (x > 0).astype(np.int64) - (x < 0).astype(np.int64)


def _where(mask: np.ndarray, x: tuple, y: tuple) -> tuple:
    """The exact column that takes x's parts where ``mask`` holds, y's elsewhere."""
    return tuple(np.where(mask, p, q) for p, q in zip(x, y))


BLOCK = 256  # entries that the loader checks, or the writer prints, at once


def derived_rows(doc: PackingDocument):
    """For each block of :data:`BLOCK` entries in order, the slice of its
    entries and their (inversive, curvature, orientation, first, second), as
    columns computed in one pass over the block's rows.

    Orientation (int64, n) is the sign of the curvature; a half-space
    (orientation 0) has its normal and offset as (first, second), and a
    sphere its center and radius 1/|curvature|.  In float documents every
    other column is a float64 array, (n, d+2), (n), (n, d) and (n).  In
    exact ones it is a tuple (pa, qa, pb, qb) of object arrays of ints that
    broadcast to those shapes, each scalar being pa/qa + (pb/qb) sqrt m, the
    fractions unreduced.  With kappa = (ka + kb sqrt m) num/den, the center
    is x_i / kappa = ((a_i ka - b_i kb m) + (b_i ka - a_i kb) sqrt m) / (ka^2
    - kb^2 m), and the radius has the exact sign of ka + kb sqrt m.
    """
    for lo in range(0, len(doc), BLOCK):
        entries = slice(lo, lo + BLOCK)
        yield entries, _derived(doc, {k: v[entries] for k, v in doc.rows.items()})


def _derived(doc: PackingDocument, r: dict) -> tuple:
    """The columns of :func:`derived_rows` for the rows ``r`` of doc."""
    d = doc.dimension
    if doc.is_float:
        V = r["V"]
        k = V[:, -1] - V[:, -2]
        flat = k == 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            C, R = V[:, :d] / k[:, None], 1 / np.abs(k)
        s = np.where(k > 0, 1, np.where(flat, 0, -1))
        return V, k, s, np.where(flat[:, None], V[:, :d], C), np.where(flat, V[:, d], R)
    m, A, B, num, den = doc.m, r["A"], r["B"], r["num"], r["den"]
    inv = (A * num[:, None], den[:, None], B * num[:, None], den[:, None])
    ka, kb = A[:, -1] - A[:, -2], B[:, -1] - B[:, -2]
    sa, sb = _sign(ka), _sign(kb)
    flat = (sa == 0) & (sb == 0)
    # quad_sign(ka, kb, m): a^2 = b^2 m has no solution with b != 0
    s = np.where(ka * ka > kb * kb * m, sa, sb)
    s = np.where((sb == 0) | (sa == sb), sa, np.where(sa == 0, sb, s))
    n = np.where(flat, 1, ka * ka - kb * kb * m)
    a, b, kac, kbc = A[:, :d], B[:, :d], ka[:, None], kb[:, None]
    center = (a * kac - b * kbc * m, n[:, None], b * kac - a * kbc, n[:, None])
    radius = (s * ka * den, n * num, -s * kb * den, n * num)
    normal = (inv[0][:, :d], inv[1], inv[2][:, :d], inv[3])
    offset = (inv[0][:, d], den, inv[2][:, d], den)
    curvature = (ka * num, den, kb * num, den)
    return inv, curvature, s, _where(flat[:, None], normal, center), _where(flat, offset, radius)


# -- the JSON text ---------------------------------------------------------------


def _float_texts(x: np.ndarray) -> list:
    """The JSON text of each float, row by row: its repr, or json's name
    for inf and nan."""
    values = x.ravel().tolist()
    return list(map(repr if np.isfinite(x).all() else json.dumps, values))


def _list_text(items: list, indent: int) -> str:
    """A JSON list of item texts, laid out as json.dumps(indent=2) lays it."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def _ratio_texts(p: np.ndarray, q: np.ndarray) -> list:
    """The text "a" or "a/b" of each fraction p/q (object arrays of ints, q
    nonzero), in lowest terms."""
    g = np.gcd(p, q)
    g = np.where(q < 0, -g, g)
    return [str(a) if b == 1 else f"{a}/{b}" for a, b in zip((p // g).tolist(), (q // g).tolist())]


def _exact_texts(x: tuple, m: int) -> list:
    """The canonical text of each scalar of an exact column (pa, qa, pb,
    qb), row by row: "a", "a/b" or "a/b±c/d√m"."""
    pa, qa, pb, qb = (p.ravel() for p in np.broadcast_arrays(*x))
    out = _ratio_texts(pa, qa)
    if not (pb != 0).any():
        return out
    root = f"{RADICAL}{m}"
    return [
        a if b == "0" else f"{a}{b}{root}" if b[0] == "-" else f"{a}+{b}{root}"
        for a, b in zip(out, _ratio_texts(pb, qb))
    ]


def _entry_template(d: int, exact: bool, sphere: bool) -> str:
    """One entry's text with a %s for each of its (d + 2) + 1 + d + 1
    scalars and its depth, word and orbit, as json.dumps(indent=2) lays it."""
    x = '"%s"' if exact else "%s"
    if sphere:
        geo = f'      "center": {_list_text([x] * d, 6)},\n      "radius": {x},\n'
    else:
        geo = (
            '      "halfspace": {\n'
            f'        "normal": {_list_text([x] * d, 8)},\n'
            f'        "offset": {x}\n'
            "      },\n"
        )
    return (
        "    {\n"
        f'      "inversive": {_list_text([x] * (d + 2), 6)},\n'
        f'      "curvature": {x},\n'
        f"{geo}"
        '      "depth": %s,\n'
        '      "word": %s,\n'
        '      "orbit": %s\n'
        "    }"
    )


def to_json(doc: PackingDocument) -> str:
    """The document's JSON text, as json.dumps(indent=2, ensure_ascii=False)
    prints it, written from the rows a block of entries at a time."""
    head = json.dumps(
        {"dimension": doc.dimension, "mode": doc.mode, "solid": doc.solid, "seed": doc.seed,
         "entries": []},
        ensure_ascii=False,
        indent=2,
    )
    if not len(doc):
        return head + "\n"
    d, exact = doc.dimension, not doc.is_float
    texts = (lambda x: _exact_texts(x, doc.m)) if exact else _float_texts
    templates = {s: _entry_template(d, exact, s != 0) for s in (-1, 0, 1)}
    letters = {w: json.dumps(w, ensure_ascii=False) for w in set(chain.from_iterable(doc.word))}

    def word_text(word) -> str:
        return _list_text(list(map(letters.get, word)), 6)

    parts = [head[: -len("[]\n}")] + "[\n"]  # one join, so the text is made once
    for entries, (inv, k, shape, first, second) in derived_rows(doc):
        inv, first = texts(inv), texts(first)
        fields = zip(
            *(inv[j :: d + 2] for j in range(d + 2)),
            texts(k),
            *(first[j::d] for j in range(d)),
            texts(second),
            doc.depth[entries],
            map(word_text, doc.word[entries]),
            doc.orbit[entries],
        )
        parts.append(",\n".join([templates[s] % f for s, f in zip(shape.tolist(), fields)]))
        parts.append(",\n")
    parts[-1] = "\n  ]\n}\n"
    return "".join(parts)


# -- loading ---------------------------------------------------------------------


_JSON_TYPES = {dict: "object", list: "list", str: "string", int: "integer"}
_REQUIRED = object()


def _typed(x, kind: type, what: str, nullable: bool = False):
    """x, checked to be a JSON value of ``kind`` (or null when ``nullable``).

    Every JSON type in a document is checked here, so each wrong one is a
    ValueError that names its field.
    """
    if (x is None and nullable) or (
        isinstance(x, kind) and not (kind is int and isinstance(x, bool))
    ):
        return x
    raise ValueError(f"{what} is not a JSON {_JSON_TYPES[kind]}")


def _field(raw: dict, key: str, kind: type, default=_REQUIRED, nullable=False):
    """raw[key] checked by :func:`_typed`; a missing key takes ``default``,
    and is an error when there is none."""
    if key not in raw:
        if default is _REQUIRED:
            raise ValueError(f"field {key!r} is missing")
        return default
    return _typed(raw[key], kind, repr(key), nullable)


def _check_entry(raw, floaty: bool) -> None:
    """Raise the first fault of one JSON entry, with the loader's message:
    the checks that :func:`_read_block` makes a block at a time."""
    _typed(raw, dict, "entry")
    if "halfspace" in raw:
        hs = _field(raw, "halfspace", dict)
        derived = [*_field(hs, "normal", list), _field(hs, "offset", object)]
    else:
        derived = [*_field(raw, "center", list), _field(raw, "radius", object)]
    for x in (_field(raw, "curvature", object), *derived):  # written for readers, never read
        _float_scalar(x) if floaty else _exact_scalar(x, read=False)
    for x in _field(raw, "inversive", list):
        _float_scalar(x) if floaty else _exact_scalar(x)
    _field(raw, "depth", int, 0)
    for w in _field(raw, "word", list, ()):
        _typed(w, str, "'word' letter")
    _field(raw, "orbit", int, 0)


_MISSING = object()
# an entry's fields and the value each takes when missing
_ENTRY_FIELDS = (("inversive", None), ("curvature", None), ("center", None), ("radius", None),
                 ("depth", 0), ("word", ()), ("orbit", 0), ("halfspace", _MISSING))


def _block_fields(block: list) -> Optional[tuple]:
    """(inversive lists, derived scalars, depths, words, orbits) of a block
    of JSON entries, each field read for all entries at once; None if one is
    missing or of the wrong JSON type, as :func:`_check_entry` would
    find it.  The scalars' own types are left to the caller: a missing one
    is read as None."""
    try:
        invs, ks, first, second, depths, words, orbits, hs = (
            list(map(dict.get, block, repeat(key), repeat(default)))
            for key, default in _ENTRY_FIELDS
        )
    except TypeError:  # an entry that is not a JSON object
        return None
    for i in [i for i, h in enumerate(hs) if h is not _MISSING]:
        if type(hs[i]) is not dict:
            return None
        first[i], second[i] = hs[i].get("normal"), hs[i].get("offset")
    if (
        {*map(type, invs), *map(type, first)} != {list}
        or {*map(type, depths), *map(type, orbits)} != {int}
        or {*map(type, words)} - {list, tuple}
        or {*map(type, chain.from_iterable(words))} - {str}
    ):
        return None
    derived = [*chain.from_iterable(first), *second, *ks]
    return invs, derived, depths, list(map(tuple, words)), orbits


def _float_values(invs: list, derived: list) -> Optional[tuple]:
    """The inversive scalars of a float block, in row-major order, and no
    fields; None if any stored scalar is not a finite JSON number."""
    flat = list(chain.from_iterable(invs))
    if {*map(type, flat), *map(type, derived)} - {int, float}:
        return None
    try:
        values, checked = np.array(flat, dtype=np.float64), np.array(derived, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    return (values, set()) if np.isfinite(values).all() and np.isfinite(checked).all() else None


def _joined(texts: list) -> Optional[str]:
    """The texts joined by newlines, one a line; None if one is not a string,
    or holds a newline or a zero denominator."""
    try:
        joined = "\n".join(texts)
    except TypeError:  # a scalar that is not a JSON string
        return None
    if joined.count("\n") != max(len(texts) - 1, 0):
        return None
    return None if "/0" in joined and _ZERO_DENOMINATOR_RE.search(joined) else joined


def _denominators(texts: tuple) -> list:
    """The int of each denominator's text, 1 for an empty one, each distinct
    text converted once: a document has few."""
    value = {t: int(t) for t in set(texts) if t}
    return list(map(value.get, texts, repeat(1)))


def _exact_parts(invs: list, derived: list) -> Optional[tuple]:
    """The parts (pa, qa, pb, qb) of an exact block's inversive scalars, as
    four lists of ints in row-major order, and the set of fields of their
    nonzero radical parts; None if a stored scalar is malformed, as
    :func:`_parse` would find it."""
    flat = list(chain.from_iterable(invs))
    checked, joined = _joined(derived), _joined(flat)
    if checked is None or joined is None or len(_LINES_RE.findall(checked)) != len(derived):
        return None
    groups = _LINES_RE.findall(joined)
    if len(groups) != len(flat):
        return None
    an, ad, bn, bd, ms = zip(*groups) if groups else ((),) * 5
    try:
        pb = [int(x) if x else 0 for x in bn]
        parts = list(map(int, an)), _denominators(ad), pb, _denominators(bd)
        radicand = {m: int(m) for m in set(ms) if m}
        fields = {field_modulus(radicand[m]) for m in set(compress(ms, pb))}
    except ValueError:  # a number beyond int's digit limit, or not a field
        return None
    return parts, fields


class _Block(NamedTuple):
    rows: Optional[dict]  # None when an entry has the wrong number of coordinates
    wrong: Optional[int]  # the first such entry's number of coordinates
    fields: set  # the fields of the block's nonzero radical parts
    depth: list
    word: list
    orbit: list


def _read_block(block: list, floaty: bool, width: int) -> _Block:
    """A block of JSON entries, checked and made into rows.  The faults that
    each entry's own checks find are raised here, the first in entry order;
    a wrong number of coordinates, or fields that differ, are left to the
    caller, which refuses them after every entry is checked."""
    fields = _block_fields(block)
    if fields is not None:
        invs, derived, depth, word, orbit = fields
        read = (_float_values if floaty else _exact_parts)(invs, derived)
    if fields is None or read is None:
        for raw in block:
            _check_entry(raw, floaty)  # raises the first fault
        raise AssertionError("a refused block holds no faulty entry")  # pragma: no cover
    (parts, ms), rows = read, None
    wrong = next((len(v) for v in invs if len(v) != width), None)
    if wrong is None and floaty:
        rows = {"V": parts.reshape(-1, width)}
    elif wrong is None:
        rows = exact_rows(parts, width)
    return _Block(rows, wrong, ms, depth, word, orbit)


def from_json(text: str) -> PackingDocument:
    """The document of a JSON text, checked as described above.

    The cyclic garbage collector is paused while it loads: the parsed JSON
    and the block columns hold no reference cycles and are freed as the rows
    are made, so a collection would only walk the live heap for nothing.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _load(text)
    finally:
        if collecting:
            gc.enable()


def _load(text: str) -> PackingDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"not a JSON document: {err}")
    _typed(payload, dict, "document")
    dimension = _field(payload, "dimension", int)
    if dimension < 1:
        raise ValueError(f"'dimension' is {dimension}, not a positive integer")
    mode = _field(payload, "mode", str)
    raw_entries = _field(payload, "entries", list)
    floaty = mode == MODE_FLOAT
    width = dimension + 2
    blocks = []
    for lo in range(0, len(raw_entries), BLOCK):
        blocks.append(_read_block(raw_entries[lo : lo + BLOCK], floaty, width))
        raw_entries[lo : lo + BLOCK] = [None] * len(blocks[-1].depth)  # freed as its rows are made
    solid = _field(payload, "solid", str, None, nullable=True)
    seed = _field(payload, "seed", dict, None, nullable=True) or {}
    for b in blocks:
        if b.wrong is not None:
            raise ValueError(f"entry has {b.wrong} coordinates, wanted {width}")
    rows = [b.rows for b in blocks]
    if floaty:
        m, empty = 0, {"V": np.empty((0, width))}
    else:
        fields = set().union(*(b.fields for b in blocks))
        if len(fields) > 1:
            raise ValueError("document mixes quadratic fields")
        m, empty = max(fields, default=0), exact_rows(([],) * 4, width)
        found = _exact_mode(m)
        if rows and mode != found:  # an empty document keeps the mode it declares
            raise ValueError(f"'mode' is {mode!r}, but the vectors are in {found}")
    rows = {k: np.concatenate([r[k] for r in rows or [empty]]) for k in empty}
    return PackingDocument(
        dimension,
        mode,
        solid,
        seed,
        rows,
        *(tuple(chain.from_iterable(getattr(b, k) for b in blocks)) for k in _Block._fields[3:]),
        m,
    )
