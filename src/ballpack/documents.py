"""JSON documents for ball arrangements and clusters.

A document is a flat, diffable description of one arrangement: global
metadata (dimension, numeric mode, solid tag, seed description) plus one
entry per ball.  An entry is a :class:`lorentz.Entry`, the same object a
cluster hands out: the ball's inversive coordinates and its cluster
provenance (depth, word, orbit); the vector is the ball.  The writer adds
its curvature and Euclidean geometry (``center``/``radius``, or a
``halfspace`` normal and offset) for readers of the file.  The loader
checks the JSON type of every field, and requires the derived ones to be
present and well-formed, but never reads their values: every consumer
derives them from ``inversive`` through :func:`lorentz.geometry_from_ball`.
A loaded vector's Lorentz norm is checked in one place,
:meth:`PackingDocument.balls`.  Float documents store plain JSON
numbers, which round-trip bit-exactly through the shortest decimal
representation; exact documents store every scalar as a string "a/b" or
"a/b+c/d√m" in lowest terms.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exactnum import QuadScalar, is_float_data
from .lorentz import Ball, Entry

RADICAL = "√"

MODE_FLOAT = "float"


def _fraction_text(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def scalar_to_text(x) -> str:
    """Canonical exact string: "a", "a/b", or "a/b±c/d√m" in lowest terms."""
    if isinstance(x, QuadScalar):
        a, b, m = x.a, x.b, x.m or 0
    else:
        a, b, m = Fraction(x), Fraction(0), 0
    out = _fraction_text(a)
    if b:
        out += ("+" if b > 0 else "-") + _fraction_text(abs(b)) + RADICAL + str(m)
    return out


_SCALAR_RE = re.compile(
    r"^(?P<an>[+-]?\d+)(?:/(?P<ad>\d+))?"
    r"(?:(?P<sign>[+-])(?P<bn>\d+)(?:/(?P<bd>\d+))?√(?P<m>\d+))?$"
)


def _scalar_match(s: str):
    mt = _SCALAR_RE.match(s)
    if not mt:
        raise ValueError(f"malformed exact scalar {s!r}")
    if mt["ad"] == "0" or mt["bd"] == "0":
        raise ValueError(f"zero denominator in {s!r}")
    return mt


def scalar_from_text(s: str):
    """Inverse of scalar_to_text; returns a Fraction or a QuadScalar."""
    mt = _scalar_match(s)
    a = Fraction(int(mt["an"]), int(mt["ad"] or 1))
    if mt["m"] is None:
        return a
    b = Fraction(int(mt["bn"]), int(mt["bd"] or 1))
    if mt["sign"] == "-":
        b = -b
    return QuadScalar(a, b, int(mt["m"]))


def _dump_scalar(x, floaty: bool):
    if floaty:
        return float(x)
    return scalar_to_text(x)


def _load_scalar(x, floaty: bool, read: bool = True):
    """The value of a stored scalar; with ``read=False`` it is only checked
    to be well-formed."""
    if floaty:
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ValueError(f"float document holds a non-number {x!r}")
        try:
            value = float(x)
        except OverflowError:  # an integer beyond the float range
            value = math.inf if x > 0 else -math.inf
        if not math.isfinite(value):
            raise ValueError(f"float document holds a non-finite number {value!r}")
        return value
    if not isinstance(x, str):
        raise ValueError(f"exact document holds a non-string scalar {x!r}")
    return scalar_from_text(x) if read else _scalar_match(x)


@dataclass(frozen=True)
class PackingDocument:
    """Serializable snapshot of a ball arrangement or cluster."""

    dimension: int
    mode: str
    solid: Optional[str]
    seed: dict = field(default_factory=dict)
    entries: tuple = ()

    @property
    def is_float(self) -> bool:
        return self.mode == MODE_FLOAT

    def balls(self) -> list:
        """The entries' balls, each vector checked to have Lorentz norm 1."""
        return [Ball(e.inversive) for e in self.entries]


def _mode_of(values) -> str:
    if is_float_data(values):
        return MODE_FLOAT
    m = 0
    for x in values:
        if isinstance(x, QuadScalar) and x.m:
            if m and x.m != m:
                raise ValueError("document mixes quadratic fields")
            m = x.m
    return f"Q({RADICAL}{m})" if m else "Q"


def _document(dimension: int, entries: tuple, solid, seed) -> PackingDocument:
    return PackingDocument(
        dimension=dimension,
        mode=_mode_of([x for e in entries for x in e.inversive]),
        solid=solid,
        seed=dict(seed or {}),
        entries=entries,
    )


def document_from_arrangement(arr, *, solid=None, seed=None) -> PackingDocument:
    """Depth-0 document of an arrangement, one entry per ball in order."""
    entries = tuple(Entry(b.v, orbit=i) for i, b in enumerate(arr.balls))
    return _document(arr.dimension, entries, solid, seed)


def document_from_cluster(cluster, *, solid=None, seed=None) -> PackingDocument:
    """Document of a cluster: its entries, in their deterministic order."""
    return _document(cluster.seed.dimension, tuple(cluster), solid, seed)


def _entry_dict(e: Entry, floaty: bool) -> dict:
    dump = lambda xs: [_dump_scalar(x, floaty) for x in xs]
    geo = e.geometry
    out = {"inversive": dump(e.inversive), "curvature": _dump_scalar(e.curvature, floaty)}
    if geo.kind == "halfspace":
        out["halfspace"] = {
            "normal": dump(geo.normal),
            "offset": _dump_scalar(geo.offset, floaty),
        }
    else:
        out["center"] = dump(geo.center)
        out["radius"] = _dump_scalar(geo.radius, floaty)
    out["depth"] = e.depth
    out["word"] = list(e.word)
    out["orbit"] = e.orbit
    return out


def to_json(doc: PackingDocument) -> str:
    floaty = doc.is_float
    payload = {
        "dimension": doc.dimension,
        "mode": doc.mode,
        "solid": doc.solid,
        "seed": doc.seed,
        "entries": [_entry_dict(e, floaty) for e in doc.entries],
    }
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


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


def _entry_from_dict(raw, floaty: bool) -> Entry:
    _typed(raw, dict, "entry")
    if "halfspace" in raw:
        hs = _field(raw, "halfspace", dict)
        derived = [*_field(hs, "normal", list), _field(hs, "offset", object)]
    else:
        derived = [*_field(raw, "center", list), _field(raw, "radius", object)]
    for x in (_field(raw, "curvature", object), *derived):
        _load_scalar(x, floaty, read=False)  # written for readers, never read
    return Entry(
        inversive=tuple(_load_scalar(x, floaty) for x in _field(raw, "inversive", list)),
        depth=_field(raw, "depth", int, 0),
        word=tuple(_typed(w, str, "'word' letter") for w in _field(raw, "word", list, ())),
        orbit=_field(raw, "orbit", int, 0),
    )


def from_json(text: str) -> PackingDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"not a JSON document: {err}")
    _typed(payload, dict, "document")
    dimension = _field(payload, "dimension", int)
    mode = _field(payload, "mode", str)
    raw_entries = _field(payload, "entries", list)
    floaty = mode == MODE_FLOAT
    entries = tuple(_entry_from_dict(raw, floaty) for raw in raw_entries)
    doc = PackingDocument(
        dimension=dimension,
        mode=mode,
        solid=_field(payload, "solid", str, None, nullable=True),
        seed=_field(payload, "seed", dict, None, nullable=True) or {},
        entries=entries,
    )
    if entries:
        n = doc.dimension + 2
        for e in entries:
            if len(e.inversive) != n:
                raise ValueError(
                    f"entry has {len(e.inversive)} coordinates, wanted {n}"
                )
        found = _mode_of([x for e in entries for x in e.inversive])
        if mode != found:  # an empty document keeps the mode it declares
            raise ValueError(f"'mode' is {mode!r}, but the vectors are in {found}")
    return doc
