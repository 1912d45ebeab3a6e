"""JSON documents for ball arrangements and clusters.

A document is a flat, diffable description of one arrangement: global
metadata (dimension, numeric mode, solid tag, seed description) plus one
entry per ball.  An entry is the ball's inversive coordinates and its
cluster provenance (depth, word, orbit); the vector is the ball.  The
writer adds its curvature and Euclidean geometry (``center``/``radius``, or
a ``halfspace`` normal and offset) for readers of the file.  The loader
requires those fields to be present and well-formed but never reads their
values: every consumer derives them from ``inversive`` through
:func:`lorentz.geometry_from_ball`.  Float documents store plain JSON
numbers, which round-trip bit-exactly through the shortest decimal
representation; exact documents store every scalar as a string "a/b" or
"a/b+c/d√m" in lowest terms.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exactnum import QuadScalar, is_float_data
from . import lorentz
from .lorentz import Ball, BallGeometry, geometry_from_ball

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
        return float(x)
    if not isinstance(x, str):
        raise ValueError(f"exact document holds a non-string scalar {x!r}")
    return scalar_from_text(x) if read else _scalar_match(x)


@dataclass(frozen=True)
class DocumentEntry:
    """One ball of a document: its inversive vector and cluster provenance.

    The vector is the ball; its curvature and Euclidean geometry are
    derived from it on demand.
    """

    inversive: tuple
    depth: int = 0
    word: tuple = ()
    orbit: int = 0

    @property
    def ball(self) -> Ball:
        return Ball(self.inversive)

    @property
    def curvature(self):
        return lorentz.curvature(self.inversive)

    @property
    def geometry(self) -> BallGeometry:
        return geometry_from_ball(Ball(self.inversive, _checked=True))


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
        return [e.ball for e in self.entries]


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


def _document(dimension: int, rows, solid, seed) -> PackingDocument:
    """The document of (ball, depth, word, orbit) rows, one entry per row."""
    entries = tuple(
        DocumentEntry(tuple(b.v), depth, tuple(word), orbit)
        for b, depth, word, orbit in rows
    )
    return PackingDocument(
        dimension=dimension,
        mode=_mode_of([x for e in entries for x in e.inversive]),
        solid=solid,
        seed=dict(seed or {}),
        entries=entries,
    )


def document_from_arrangement(arr, *, solid=None, seed=None) -> PackingDocument:
    """Depth-0 document of an arrangement, one entry per ball in order."""
    rows = ((b, 0, (), i) for i, b in enumerate(arr.balls))
    return _document(arr.dimension, rows, solid, seed)


def document_from_cluster(cluster, *, solid=None, seed=None) -> PackingDocument:
    """Document of a cluster in its deterministic entry order."""
    rows = ((e.ball, e.depth, e.word, e.orbit) for e in cluster)
    return _document(cluster.seed.dimension, rows, solid, seed)


def _entry_dict(e: DocumentEntry, floaty: bool) -> dict:
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


def _typed(x, kind: type, what: str):
    if not isinstance(x, kind):
        raise ValueError(f"{what} is not a JSON {'list' if kind is list else 'object'}")
    return x


def _entry_from_dict(raw, floaty: bool) -> DocumentEntry:
    _typed(raw, dict, "entry")
    if "halfspace" in raw:
        hs = _typed(raw["halfspace"], dict, "'halfspace'")
        derived = [*_typed(hs["normal"], list, "'normal'"), hs["offset"]]
    else:
        derived = [*_typed(raw["center"], list, "'center'"), raw["radius"]]
    for x in (raw["curvature"], *derived):
        _load_scalar(x, floaty, read=False)  # written for readers, never read
    return DocumentEntry(
        inversive=tuple(
            _load_scalar(x, floaty) for x in _typed(raw["inversive"], list, "'inversive'")
        ),
        depth=int(raw.get("depth", 0)),
        word=tuple(raw.get("word", ())),
        orbit=int(raw.get("orbit", 0)),
    )


def from_json(text: str) -> PackingDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"not a JSON document: {err}")
    _typed(payload, dict, "document")
    for key in ("dimension", "mode", "entries"):
        if key not in payload:
            raise ValueError(f"document is missing {key!r}")
    mode = payload["mode"]
    floaty = mode == MODE_FLOAT
    raw_entries = _typed(payload["entries"], list, "'entries'")
    entries = tuple(_entry_from_dict(raw, floaty) for raw in raw_entries)
    doc = PackingDocument(
        dimension=int(payload["dimension"]),
        mode=mode,
        solid=payload.get("solid"),
        seed=dict(payload.get("seed") or {}),
        entries=entries,
    )
    if entries:
        n = doc.dimension + 2
        for e in entries:
            if len(e.inversive) != n:
                raise ValueError(
                    f"entry has {len(e.inversive)} coordinates, wanted {n}"
                )
    return doc
