"""The document layer on `lorentz.Entry` objects and exact scalars.

`ballpack.documents` and `ballpack.svgout` write, load, check and render
documents on integer (or float64) rows; this is the same layer written
entry by entry, with every scalar a Fraction, QuadScalar or float.  It is
kept as the reference implementation that the tests compare the row
layer against, byte for byte.  So are `classify_pair` and the `flags`
check, which the program decides on integer rows for exact balls: here
they take every Lorentz product and every flag residual in exact scalars.
"""

import contextlib
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from ballpack import cli
from ballpack.exactnum import FLOAT_REL, QuadScalar, approx, compare, is_float_data
from ballpack.lorentz import (
    DISJOINT,
    EQUAL,
    EXTERNALLY_TANGENT,
    INTERNALLY_TANGENT,
    NESTED,
    ORTHOGONAL,
    OVERLAPPING,
    Ball,
    Entry,
    _is_past_directed,
    lorentz_product,
    product_scale,
    same_vector,
)
from ballpack.packings import BallArrangement
from ballpack.polytopes import flags, regular_edge_scribed, solid_from_name
from ballpack.relations import lorentzian_curvature, verify_flag_relation
from ballpack.svgout import RenderSpec, _box_path, _circle_subpath, _clip_halfplane, _fmt

RADICAL = "√"
MODE_FLOAT = "float"


def _fraction_text(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def scalar_to_text(x) -> str:
    if isinstance(x, QuadScalar):
        a, b, m = x.a, x.b, x.m or 0
    else:
        a, b, m = Fraction(x), Fraction(0), 0
    out = _fraction_text(a)
    if b:
        out += ("+" if b > 0 else "-") + _fraction_text(abs(b)) + RADICAL + str(m)
    return out


_SCALAR_RE = re.compile(
    r"^(?P<an>[+-]?[0-9]+)(?:/(?P<ad>[0-9]+))?"
    r"(?:(?P<sign>[+-])(?P<bn>[0-9]+)(?:/(?P<bd>[0-9]+))?√(?P<m>[0-9]+))?\Z"
)


def _scalar_match(s: str):
    mt = _SCALAR_RE.match(s)
    if not mt:
        raise ValueError(f"malformed exact scalar {s!r}")
    if any(d is not None and not d.strip("0") for d in (mt["ad"], mt["bd"])):
        raise ValueError(f"zero denominator in {s!r}")
    return mt


def scalar_from_text(s: str):
    mt = _scalar_match(s)
    a = Fraction(int(mt["an"]), int(mt["ad"] or 1))
    if mt["m"] is None:
        return a
    b = Fraction(int(mt["bn"]), int(mt["bd"] or 1))
    if mt["sign"] == "-":
        b = -b
    return QuadScalar(a, b, int(mt["m"]))


def _dump_scalar(x, floaty: bool):
    return float(x) if floaty else scalar_to_text(x)


def _load_scalar(x, floaty: bool, read: bool = True):
    if floaty:
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ValueError(f"float document holds a non-number {x!r}")
        try:
            value = float(x)
        except OverflowError:
            value = math.inf if x > 0 else -math.inf
        if not math.isfinite(value):
            raise ValueError(f"float document holds a non-finite number {value!r}")
        return value
    if not isinstance(x, str):
        raise ValueError(f"exact document holds a non-string scalar {x!r}")
    return scalar_from_text(x) if read else _scalar_match(x)


@dataclass(frozen=True)
class OracleDocument:
    dimension: int
    mode: str
    solid: Optional[str]
    seed: dict = field(default_factory=dict)
    entries: tuple = ()

    @property
    def is_float(self) -> bool:
        return self.mode == MODE_FLOAT

    def balls(self) -> list:
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


def document(dimension: int, entries, solid=None, seed=None) -> OracleDocument:
    entries = tuple(entries)
    return OracleDocument(
        dimension=dimension,
        mode=_mode_of([x for e in entries for x in e.inversive]),
        solid=solid,
        seed=dict(seed or {}),
        entries=entries,
    )


def document_from_arrangement(arr, *, solid=None, seed=None) -> OracleDocument:
    entries = tuple(Entry(b.v, orbit=i) for i, b in enumerate(arr.balls))
    return document(arr.dimension, entries, solid, seed)


def document_from_cluster(cluster, *, solid=None, seed=None) -> OracleDocument:
    return document(cluster.seed.dimension, tuple(cluster), solid, seed)


def _entry_dict(e: Entry, floaty: bool) -> dict:
    dump = lambda xs: [_dump_scalar(x, floaty) for x in xs]  # noqa: E731
    geo = e.geometry
    out = {"inversive": dump(e.inversive), "curvature": _dump_scalar(e.curvature, floaty)}
    if geo.kind == "halfspace":
        out["halfspace"] = {"normal": dump(geo.normal), "offset": _dump_scalar(geo.offset, floaty)}
    else:
        out["center"] = dump(geo.center)
        out["radius"] = _dump_scalar(geo.radius, floaty)
    out["depth"] = e.depth
    out["word"] = list(e.word)
    out["orbit"] = e.orbit
    return out


def to_json(doc: OracleDocument) -> str:
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
    if (x is None and nullable) or (
        isinstance(x, kind) and not (kind is int and isinstance(x, bool))
    ):
        return x
    raise ValueError(f"{what} is not a JSON {_JSON_TYPES[kind]}")


def _field(raw: dict, key: str, kind: type, default=_REQUIRED, nullable=False):
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
        _load_scalar(x, floaty, read=False)
    return Entry(
        inversive=tuple(_load_scalar(x, floaty) for x in _field(raw, "inversive", list)),
        depth=_field(raw, "depth", int, 0),
        word=tuple(_typed(w, str, "'word' letter") for w in _field(raw, "word", list, ())),
        orbit=_field(raw, "orbit", int, 0),
    )


def from_json(text: str) -> OracleDocument:
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
    doc = OracleDocument(
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
                raise ValueError(f"entry has {len(e.inversive)} coordinates, wanted {n}")
        found = _mode_of([x for e in entries for x in e.inversive])
        if mode != found:
            raise ValueError(f"'mode' is {mode!r}, but the vectors are in {found}")
    return doc


def render_svg(doc: OracleDocument, spec: Optional[RenderSpec] = None) -> str:
    if doc.dimension != 2:
        raise ValueError(f"can only render d=2 documents, got d={doc.dimension}")
    spec = spec or RenderSpec()
    x, y, w, h = (float(v) for v in spec.viewport)
    bx0, by0, bx1, by1 = spec.extended_box()
    box = [(bx0, by0), (bx1, by0), (bx1, by1), (bx0, by1)]
    npal = len(spec.palette)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="640" height="{_fmt(640 * h / w)}" '
        f'viewBox="{_fmt(x)} {_fmt(-(y + h))} {_fmt(w)} {_fmt(h)}">'
    ]
    style = f'stroke="{spec.stroke}" stroke-width="{_fmt(spec.stroke_width)}"'
    for e in doc.entries:
        fill = spec.palette[e.orbit % npal]
        geo = e.geometry
        if geo.kind == "halfspace":
            nx, ny = (approx(v) for v in geo.normal)
            poly = _clip_halfplane(box, nx, ny, approx(geo.offset))
            if len(poly) < 3:
                continue
            pts = " ".join(f"{_fmt(px)},{_fmt(-py)}" for px, py in poly)
            parts.append(f'<polygon points="{pts}" fill="{fill}" {style}/>')
            continue
        cx, cy = (approx(v) for v in geo.center)
        r = approx(geo.radius)
        if spec.max_radius_clip is not None and r > spec.max_radius_clip:
            continue
        if geo.orientation < 0:
            d_attr = _box_path(bx0, by0, bx1, by1) + " " + _circle_subpath(cx, cy, r)
            parts.append(f'<path fill-rule="evenodd" d="{d_attr}" fill="{fill}" {style}/>')
        else:
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" '
                f'fill="{fill}" {style}/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _check_descartes(doc: OracleDocument, balls: list, frame):
    record, n = doc.seed, len(doc.entries)
    depth, deepest = record.get("depth"), max((e.depth for e in doc.entries), default=0)
    if record.get("kind") == "cluster" and depth != deepest:
        return "FAILED", f"the record's depth is {depth!r}, the deepest entry's {deepest}"
    made = cli._made_by(record, "float" if doc.is_float else "exact")
    if isinstance(made, BallArrangement):
        image, expected = made, document_from_arrangement(made).entries
    elif made.flavor != record.get("flavor"):
        return "FAILED", f"the record's flavor is {record.get('flavor')!r}, not {made.flavor!r}"
    else:
        image, expected = made.seed, made
    if len(expected) != n:
        return "FAILED", f"the record makes {len(expected)} balls, the document holds {n}"
    for i, (got, want) in enumerate(zip(doc.entries, expected)):
        if doc.is_float and same_vector(got.inversive, want.inversive):
            got = replace(got, inversive=want.inversive)
        if got != want:
            return "FAILED", f"entry {i} differs from what the record makes"
    p = image.polytope
    flag = cli.flags(p)[0]
    ks = cli.flag_curvatures(image, flag)
    case = (f"flag {flag} of the seed image", cli.verify_flag_relation(p.family, ks), ks)
    return cli._residual_check([case], "windows", "no flags", f"{n} balls match the record")


def classify_pair(b1: Ball, b2: Ball) -> str:
    """``lorentz.classify_pair`` with the Lorentz product in exact scalars."""
    if _is_past_directed(b1) and _is_past_directed(b2):
        raise ValueError("cannot classify a pair of past-directed balls")
    x, y = b1.v, b2.v
    p = lorentz_product(x, y)
    scale = lambda: product_scale(x, y)
    if isinstance(p, float):
        if same_vector(x, y):
            return EQUAL
        if FLOAT_REL * scale() >= 0.5:
            raise ValueError(f"float balls too large to classify (scale {scale():.3g})")
    s = compare(p, -1, scale)
    if s <= 0:
        return EXTERNALLY_TANGENT if s == 0 else DISJOINT
    if compare(p, 0, scale) == 0:
        return ORTHOGONAL
    s = compare(p, 1, scale)
    if s == 0:
        return EQUAL if x == y else INTERNALLY_TANGENT
    return NESTED if s > 0 else OVERLAPPING


def check_flags(doc, balls, frame):
    """The flags check with every flag's residual in exact scalars."""
    seed = doc.seed
    if seed.get("kind") != "projection":
        raise ValueError("flag check applies only to project documents")
    s = solid_from_name(cli._recorded(seed, "solid", str))
    p = regular_edge_scribed(s)
    if len(balls) != len(p.vertices):
        raise ValueError("document does not hold one ball per vertex")
    arr = BallArrangement(tuple(balls))
    face_ks = {f: lorentzian_curvature(arr, f) for fs in p.faces_by_rank.values() for f in fs}
    whole = lorentzian_curvature(arr)
    cases = (
        (f"flag {flag}", verify_flag_relation(s, ks), ks)
        for flag in flags(p)
        for ks in [(*(face_ks[f] for f in flag), whole)]
    )
    return cli._residual_check(cases, "flags", "no flags")


def verify(text: str, checks: Optional[str] = None) -> tuple:
    """(exit code, stdout, stderr) of ``ballpack verify`` on a document's
    text, with the entries' descartes check, norm checks and the flags check
    on exact scalars; the packing and soddy checks, which take the balls,
    are the program's own."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            doc = from_json(text)
            if checks:
                names = [c.strip() for c in checks.split(",") if c.strip()]
            else:
                names = ["packing"]
                kind = doc.seed.get("kind")
                if kind in ("projection", "dual-projection", "cluster"):
                    names.append("descartes")
                if len(doc.entries) >= doc.dimension + 2:
                    names.append("soddy")
                if kind == "projection":
                    names.append("flags")
            balls = doc.balls()
            failed = False
            for name in names:
                check = {"descartes": _check_descartes, "flags": check_flags}.get(name, cli._CHECKS[name])
                status, detail = check(doc, balls, regular_edge_scribed)
                print(f"{name}: {status} ({detail})")
                failed = failed or status == "FAILED"
            rc = 1 if failed else 0
        except (ValueError, KeyError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            rc = 2
    return rc, out.getvalue(), err.getvalue()
