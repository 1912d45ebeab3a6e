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
floats from the rows through ``exactnum.quad_float``.  :class:`lorentz.Entry`
objects are built only on demand (:attr:`PackingDocument.entries`).

The writer adds each ball's curvature and Euclidean geometry
(``center``/``radius``, or a ``halfspace`` normal and offset) for readers
of the file.  The loader checks the JSON type of every field, and requires
the derived ones to be present and well-formed, but never reads their
values: every consumer derives them from ``inversive``.  Float documents
store plain JSON numbers, which round-trip bit-exactly through the
shortest decimal representation; exact documents store every scalar as a
string "a/b" or "a/b+c/d√m" in lowest terms.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .exactnum import (
    FLOAT_REL,
    exact_row,
    field_modulus,
    is_float_data,
    one_field,
    quad_sign,
    scalar_parts,
)
from .lorentz import Ball, Entry, ball_from_row

RADICAL = "√"

MODE_FLOAT = "float"

# An exact scalar travels between the layers as its ``exactnum`` parts (pa,
# qa, pb, qb), m being the document's field modulus; neither fraction needs
# to be reduced.


def _ratio_text(p: int, q: int) -> str:
    g = math.gcd(p, q)
    if q < 0:
        g = -g
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def _quad_text(x, m: int) -> str:
    """Canonical text of x = (pa, qa, pb, qb): "a", "a/b" or "a/b±c/d√m"."""
    pa, qa, pb, qb = x
    out = _ratio_text(pa, qa)
    if pb:
        sign = "+" if (pb > 0) == (qb > 0) else "-"
        out += sign + _ratio_text(abs(pb), abs(qb)) + RADICAL + str(m)
    return out


def scalar_to_text(x) -> str:
    """Canonical exact string: "a", "a/b", or "a/b±c/d√m" in lowest terms."""
    *quad, m = scalar_parts(x)
    return _quad_text(quad, m)


_SCALAR_RE = re.compile(
    r"^(?P<an>[+-]?\d+)(?:/(?P<ad>\d+))?"
    r"(?:(?P<sign>[+-])(?P<bn>\d+)(?:/(?P<bd>\d+))?√(?P<m>\d+))?$"
)


def _scalar_match(s: str) -> tuple:
    """The groups (an, ad, sign, bn, bd, m) of a well-formed scalar's text."""
    mt = _SCALAR_RE.match(s)
    if mt is None:
        raise ValueError(f"malformed exact scalar {s!r}")
    groups = mt.groups()
    if "/0" in s and any(d is not None and not d.strip("0") for d in groups[1::3]):
        raise ValueError(f"zero denominator in {s!r}")
    return groups


def _parse(s: str) -> tuple:
    """(pa, qa, pb, qb, m) of a scalar's text; m = 0 when its radical part
    is absent or zero, and otherwise a square-free integer > 1."""
    an, ad, sign, bn, bd, m = _scalar_match(s)
    pa, qa = int(an), int(ad or 1)
    pb = int(bn or 0)
    if not pb:
        return pa, qa, 0, 1, 0
    return pa, qa, -pb if sign == "-" else pb, int(bd or 1), field_modulus(int(m))


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


def _matrix(rows: list, width: int, dtype) -> np.ndarray:
    out = np.empty((len(rows), max(width, 0)), dtype=dtype)
    if rows:
        out[:] = rows
    return out


def _stack(rows: list, width: int) -> tuple:
    """The row arrays of :func:`exactnum.exact_row` results, None for a vector
    in two fields, and their one field modulus (0 for Q)."""
    try:
        m = None if None in rows else one_field(*(r[4] for r in rows))
    except ValueError:
        m = None
    if m is None:
        raise ValueError("document mixes quadratic fields")
    arrays = {
        "A": _matrix([r[0] for r in rows], width, object),
        "B": _matrix([r[1] for r in rows], width, object),
        "num": np.array([r[2] for r in rows], dtype=object),
        "den": np.array([r[3] for r in rows], dtype=object),
    }
    return arrays, m


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


def _lorentz(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise Lorentz products, summed left to right as ``lorentz_product``
    does, so float rows get the same bits."""
    s = x[:, 0] * y[:, 0]
    for j in range(1, x.shape[1] - 1):
        s = s + x[:, j] * y[:, j]
    return s - x[:, -1] * y[:, -1]


def _exact_norms_ok(rows: dict, m: int) -> np.ndarray:
    A, B, num, den = rows["A"], rows["B"], rows["num"], rows["den"]
    rational = (_lorentz(A, A) + m * _lorentz(B, B)) * num * num == den * den
    return (rational & (_lorentz(A, B) == 0)).astype(bool)


def _float_norms_ok(V: np.ndarray) -> np.ndarray:
    """``exactnum.compare(n, 1, product_scale)`` for each row's norm n."""
    d = _lorentz(V, V) - 1
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
    if is_float_data([x for e in entries for x in e.inversive]):
        rows = {"V": _matrix([[float(x) for x in e.inversive] for e in entries], width, np.float64)}
        mode, m = MODE_FLOAT, 0
    else:
        rows, m = _stack([exact_row(list(map(scalar_parts, e.inversive))) for e in entries], width)
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


def derived_rows(doc: PackingDocument) -> Iterator[tuple]:
    """Per entry: (inversive, curvature, orientation, first, second).

    Orientation is the sign of the curvature; a half-space (orientation 0)
    has its normal and offset as (first, second), and a sphere its center
    and radius 1/|curvature|.  Scalars are floats in float documents and
    (pa, qa, pb, qb) integers in exact ones.  With kappa = (ka + kb sqrt m)
    num/den, the center is x_i / kappa = ((a_i ka - b_i kb m) + (b_i ka -
    a_i kb) sqrt m) / (ka^2 - kb^2 m), and the radius has the exact sign of
    ka + kb sqrt m.
    """
    d = doc.dimension
    if doc.is_float:
        V = doc.rows["V"]
        k = V[:, -1] - V[:, -2]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            C, R = V[:, :d] / k[:, None], 1 / np.abs(k)
        for v, kk, c, r in zip(V.tolist(), k.tolist(), C.tolist(), R.tolist()):
            if kk == 0:
                yield v, kk, 0, v[:d], v[d]
            else:
                yield v, kk, 1 if kk > 0 else -1, c, r
        return
    m, r = doc.m, doc.rows
    for a, b, num, den in zip(r["A"].tolist(), r["B"].tolist(), r["num"].tolist(), r["den"].tolist()):
        inv = [(x * num, den, y * num, den) for x, y in zip(a, b)]
        ka, kb = a[-1] - a[-2], b[-1] - b[-2]
        curvature = (ka * num, den, kb * num, den)
        if not (ka or kb):
            yield inv, curvature, 0, inv[:d], inv[d]
            continue
        n = ka * ka - kb * kb * m
        center = [(x * ka - y * kb * m, n, y * ka - x * kb, n) for x, y in zip(a[:d], b[:d])]
        s = quad_sign(ka, kb, m)
        yield inv, curvature, s, center, (s * ka * den, n * num, -s * kb * den, n * num)


# -- the JSON text ---------------------------------------------------------------


def _float_text(x: float) -> str:
    return repr(x) if x - x == 0 else json.dumps(x)  # json's names for inf and nan


def _list_text(items: list, indent: int) -> str:
    """A JSON list of item texts, laid out as json.dumps(indent=2) lays it."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def to_json(doc: PackingDocument) -> str:
    """The document's JSON text, as json.dumps(indent=2, ensure_ascii=False)
    prints it, written from the rows."""
    head = json.dumps(
        {"dimension": doc.dimension, "mode": doc.mode, "solid": doc.solid, "seed": doc.seed,
         "entries": []},
        ensure_ascii=False,
        indent=2,
    )
    if not len(doc):
        return head + "\n"
    if doc.is_float:
        text = _float_text
    else:
        m = doc.m
        text = lambda x: f'"{_quad_text(x, m)}"'  # noqa: E731
    letters = {}

    def letter(w):
        if w not in letters:
            letters[w] = json.dumps(w, ensure_ascii=False)
        return letters[w]

    # many short pieces and one join: a whole entry's text, a few hundred
    # bytes, would bypass the small-object allocator and fragment the heap
    parts = [head[: -len("[]\n}")], "[\n"]
    for (inv, k, s, first, second), depth, word, orbit in zip(
        derived_rows(doc), doc.depth, doc.word, doc.orbit
    ):
        if s:
            geo = (
                f'      "center": {_list_text([text(x) for x in first], 6)},\n'
                f'      "radius": {text(second)},\n'
            )
        else:
            geo = (
                '      "halfspace": {\n'
                f'        "normal": {_list_text([text(x) for x in first], 8)},\n'
                f'        "offset": {text(second)}\n'
                "      },\n"
            )
        parts += (
            "    {\n",
            f'      "inversive": {_list_text([text(x) for x in inv], 6)},\n',
            f'      "curvature": {text(k)},\n',
            geo,
            f'      "depth": {depth},\n',
            f'      "word": {_list_text([letter(w) for w in word], 6)},\n',
            f'      "orbit": {orbit}\n',
            "    },\n",
        )
    parts[-1] = "    }\n  ]\n}\n"
    return "".join(parts)


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


def _entry_from_dict(raw, floaty: bool) -> tuple:
    """(vector, depth, word, orbit) of one JSON entry: the vector of floats,
    or of exact scalars as (pa, qa, pb, qb, m)."""
    _typed(raw, dict, "entry")
    if "halfspace" in raw:
        hs = _field(raw, "halfspace", dict)
        derived = [*_field(hs, "normal", list), _field(hs, "offset", object)]
    else:
        derived = [*_field(raw, "center", list), _field(raw, "radius", object)]
    read = _float_scalar if floaty else _exact_scalar
    for x in (_field(raw, "curvature", object), *derived):  # written for readers, never read
        if floaty:
            _float_scalar(x)
        else:
            _exact_scalar(x, read=False)
    return (
        [read(x) for x in _field(raw, "inversive", list)],
        _field(raw, "depth", int, 0),
        tuple(_typed(w, str, "'word' letter") for w in _field(raw, "word", list, ())),
        _field(raw, "orbit", int, 0),
    )


def from_json(text: str) -> PackingDocument:
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
    entries, vectors = [], []
    for i, raw in enumerate(raw_entries):
        v, *provenance = _entry_from_dict(raw, floaty)
        raw_entries[i] = None  # the parsed JSON is freed as its rows are made
        entries.append((len(v), *provenance))
        try:
            vectors.append(v if floaty else exact_row(v))
        except ValueError:  # refused with the document's other vectors, below
            vectors.append(None)
    solid = _field(payload, "solid", str, None, nullable=True)
    seed = _field(payload, "seed", dict, None, nullable=True) or {}
    width = dimension + 2
    for n, *_ in entries:
        if n != width:
            raise ValueError(f"entry has {n} coordinates, wanted {width}")
    if floaty:
        rows, m = {"V": _matrix(vectors, width, np.float64)}, 0
    else:
        rows, m = _stack(vectors, width)
        found = _exact_mode(m)
        if entries and mode != found:  # an empty document keeps the mode it declares
            raise ValueError(f"'mode' is {mode!r}, but the vectors are in {found}")
    return PackingDocument(
        dimension,
        mode,
        solid,
        seed,
        rows,
        tuple(e[1] for e in entries),
        tuple(e[2] for e in entries),
        tuple(e[3] for e in entries),
        m,
    )
