"""Command-line front end.

Subcommands produce and consume JSON packing documents:

* ``project`` / ``dual``  -- ball arrangements of edge-scribed solids
* ``spectra``             -- Mobius-invariant eigenvalue signature of a solid
* ``cluster``             -- reflection-group closures of a seed packing
* ``squares``             -- the curvature = n^2 walk inside one packing
* ``verify``              -- checks on a document: overlaps (packing), its
                             seed record and the Descartes flag relation
                             (descartes), tangent tuples (soddy), flags
* ``integrality``         -- certify integer (or golden-integer) curvatures
* ``render``              -- deterministic SVG for planar documents

Exit codes: 0 success, 1 failed verification, 2 usage or input errors.  A
check that found nothing to evaluate reports "vacuous" and fails nothing.
Relative ``--out`` paths are placed under ``$BALLPACK_OUT_DIR`` when set.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .documents import (
    PackingDocument,
    _typed,
    document_from_arrangement,
    document_from_cluster,
    first_difference,
    from_json,
    scalar_to_text,
    to_json,
)
from .exactnum import RING_Z, RING_Z_PHI, approx, phi, scalar_sign, sqrt_rational
from .lorentz import EXTERNALLY_TANGENT, classify_pair  # noqa: F401 (perfbench reads cli.classify_pair)
from .apollonian import (
    apollonian_group_from_packing,
    generate_cluster,
    packing_from_curvatures,
    perfect_square_sequence,
)
from .packings import (
    BallArrangement,
    classified_pairs,
    dual,
    face_to_north,
    first_overlap,
    grouped_spectra,
    project,
)
from .polytopes import dual_solid, flags, regular_edge_scribed, solid_from_name
from .relations import (
    INTEGRAL,
    NOT_CERTIFIED,
    exact_flag_residuals,
    flag_curvatures,
    integrality_condition,
    lorentzian_curvature,
    relative_residual,
    soddy_gosset_residual,
    verify_flag_relation,
)
from .svgout import RenderSpec, render_svg

CENTER_RANKS = {"vertex": 0, "edge": 1, "face": 2}
FLOAT_CHECK_TOL = 1e-9
TANGENT_NODES = 48  # the soddy check looks for tangent tuples among this many balls
TANGENT_TUPLES = 200  # ... and checks at most this many of them


# -- curvature tokens ---------------------------------------------------------

_TERM_RE = re.compile(r"^(\d+(?:/\d*[1-9]\d*)?)?(phi|sqrt(\d+))?$")  # no zero denominator


def parse_exact_curvature(token: str):
    """Parse "-3", "5/2", "phi+1", "2phi", "1/2sqrt2-1" into an exact scalar."""
    return sum(_curvature_terms(token), Fraction(0))


def _curvature_terms(token: str) -> list:
    """The signed exact terms of a curvature token, in order."""
    t = token.strip().replace(" ", "")
    if not t:
        raise ValueError("empty curvature value")
    terms = []
    for part in re.findall(r"[+-]?[^+-]+", t):
        sign = -1 if part.startswith("-") else 1
        body = part.lstrip("+-")
        mt = _TERM_RE.match(body)
        if not mt or (mt[1] is None and mt[2] is None):
            raise ValueError(f"malformed curvature {token!r}")
        coef = Fraction(mt[1] or 1)
        if mt[2] is None:
            val = coef
        elif mt[2] == "phi":
            val = phi() * coef
        else:
            root = sqrt_rational(int(mt[3]))
            val = coef * (root.a if root.is_rational else root)
        terms.append(sign * val)
    return terms


def _initial_tokens(text: str) -> list:
    """The three stripped tokens of an --initial value; an empty one is refused."""
    toks = [t.strip() for t in text.split(",")]
    if len(toks) != 3 or not all(toks):
        raise ValueError(f"--initial needs three comma-separated values, got {text!r}")
    return toks


def parse_initial(text: str, mode: str) -> tuple:
    parse = _float_curvature if mode == "float" else parse_exact_curvature
    return tuple(map(parse, _initial_tokens(text)))


def _float_curvature(token: str) -> float:
    """A float literal, or else an exact curvature rounded: a token neither
    reads keeps the exact parser's error.  Terms in two quadratic fields have
    no exact sum, so their floats are added.  Non-finite values are refused."""
    try:
        x = float(token)
    except ValueError:
        terms = _curvature_terms(token)
        try:
            try:
                x = approx(sum(terms, Fraction(0)))
            except ValueError:  # the terms mix two fields
                x = math.fsum(map(approx, terms))
        except OverflowError:
            x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"curvature {token.strip()!r} is not finite")
    return x


# -- small I/O helpers --------------------------------------------------------


def _out_path(path: str) -> Path:
    p = Path(path)
    base = os.environ.get("BALLPACK_OUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    if p.parent and not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write_text(path: str, text: str) -> Path:
    p = _out_path(path)
    p.write_text(text, encoding="utf-8")
    return p


def _read_doc(path: str) -> PackingDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}")
    return from_json(text)


# -- subcommands --------------------------------------------------------------


def _recorded(record: dict, key: str, kind: type):
    """record[key], checked by the documents' JSON type rule to be a value of
    ``kind``."""
    try:
        return _typed(record.get(key), kind, repr(key))
    except ValueError:
        raise ValueError(
            f"seed record field {key!r} is missing or not a JSON {kind.__name__}"
        ) from None


def _made_by(record: dict, mode: str = "exact", frame=None):
    """What a seed record describes: the BallArrangement of a projection or
    dual-projection record, with the face that its center names at the
    origin, or the Cluster of a cluster record, grown in ``mode``.

    ``project``, ``dual`` and ``cluster`` build what they write from the
    record that they store with it, and the descartes check rebuilds a
    document from its record.  A projection's polytope comes from
    ``frame(solid)``, ``regular_edge_scribed`` unless ``verify`` passes the
    builder that it shares between its checks.
    """
    kind = record.get("kind")
    if kind in ("projection", "dual-projection"):
        s = solid_from_name(_recorded(record, "solid" if kind == "projection" else "primal", str))
        if kind == "dual-projection" and s.dimension >= 3:
            raise ValueError(
                f"{s.name} has no dual arrangement: the polar of an edge-scribed "
                "polytope is edge-scribed only for polyhedra"
            )
        center = _recorded(record, "center", str)
        frame = frame or regular_edge_scribed
        if center == "none":
            arr = project(frame(s))
        elif center in CENTER_RANKS:
            arr = project(face_to_north(frame(s), CENTER_RANKS[center]))
        else:
            raise ValueError(f"seed record field 'center' is {center!r}, not none, vertex, edge or face")
        return arr if kind == "projection" else dual(arr)
    if kind == "cluster":
        initial = parse_initial(",".join(map(str, _recorded(record, "initial", list))), mode)
        seed = packing_from_curvatures(solid_from_name(_recorded(record, "solid", str)), initial)
        gens = apollonian_group_from_packing(seed)
        return generate_cluster(seed, gens, _recorded(record, "depth", int))
    raise ValueError("the document has no projection, dual-projection or cluster record")


def cmd_project(args) -> int:
    s = solid_from_name(args.solid)
    record = {"kind": "projection", "solid": s.name, "center": args.center}
    doc = document_from_arrangement(_made_by(record), solid=s.name, seed=record)
    p = _write_text(args.out, to_json(doc))
    print(f"wrote {p} ({len(doc)} balls, mode {doc.mode})")
    return 0


def cmd_dual(args) -> int:
    seed = _read_doc(getattr(args, "in")).seed
    if seed.get("kind") != "projection":
        raise ValueError("dual needs a document produced by the project command")
    s = solid_from_name(_recorded(seed, "solid", str))
    d_name = dual_solid(s).name
    center = seed.get("center", "none")
    record = {"kind": "dual-projection", "solid": d_name, "primal": s.name, "center": center}
    out = document_from_arrangement(_made_by(record), solid=d_name, seed=record)
    p = _write_text(args.out, to_json(out))
    print(f"wrote {p} ({len(out)} balls, mode {out.mode})")
    return 0


def _eig_text(v: float) -> str:
    r = round(v)
    if abs(v - r) < 1e-6:
        return str(int(r))
    return format(v, ".6g")


def cmd_spectra(args) -> int:
    s = solid_from_name(args.solid)
    groups = grouped_spectra(s)
    print(" ".join(f"{_eig_text(v)}:{mult}" for v, mult in groups))
    return 0


def cmd_cluster(args) -> int:
    s = solid_from_name(args.solid)
    initial = _initial_tokens(args.initial)
    record = {"kind": "cluster", "solid": s.name, "initial": initial, "depth": args.depth}
    cluster = _made_by(record, args.mode)
    record["flavor"] = cluster.flavor
    doc = document_from_cluster(cluster, solid=s.name, seed=record)
    p = _write_text(args.out, to_json(doc))
    print(f"wrote {p} ({len(doc)} balls, mode {doc.mode})")
    return 0


def cmd_squares(args) -> int:
    bad = None
    for n, b in perfect_square_sequence(args.p, args.n_max):
        k = b.curvature
        print(f"{n} {scalar_to_text(k)}")
        if bad is None and k != n * n:
            bad = n
    if bad is not None:
        print(f"error: curvature at step {bad} is not {bad}^2", file=sys.stderr)
        return 1
    return 0


def _check_packing(doc: PackingDocument, balls, frame):
    bad = first_overlap(balls)
    if bad is not None:
        i, j, c = bad
        return "FAILED", f"balls {i} and {j} are {c}"
    n = len(balls)
    return "ok", f"{n} balls, {n * (n - 1) // 2} pairs"


def _residual_check(cases, unit: str, empty: str, note: str = ""):
    """The loop shared by the curvature-relation checks.

    ``cases`` yields (label, residual, curvatures).  The check fails at the
    first nonzero exact residual, or float one above FLOAT_CHECK_TOL relative
    to max |k|^2.  Otherwise it reports how many cases it checked and the
    worst residual, or "vacuous" if none, and then the caller's ``note``.
    """
    worst = 0.0
    count = 0
    for label, res, ks in cases:
        size = max(abs(approx(k)) for k in ks)
        rel = relative_residual(res, size * size)  # inf, where size ** 2 raises OverflowError
        if rel > FLOAT_CHECK_TOL or (not isinstance(res, float) and scalar_sign(res) != 0):
            return "FAILED", f"{label} has relative residual {rel:.3g}"
        worst = max(worst, rel)
        count += 1
    note = f", {note}" if note else ""
    if not count:
        return "vacuous", f"{empty}{note}"
    return "ok", f"{count} {unit}, max relative residual {worst:.3g}{note}"


def _check_descartes(doc: PackingDocument, balls, frame):
    """The document against what its seed record makes, row by row, then
    the flag relation (the paper's Descartes relation) on one flag of the
    seed image.  That image is the one window: a Mobius image of the solid."""
    record, n = doc.seed, len(doc)
    depth, deepest = record.get("depth"), max(doc.depth, default=0)
    if record.get("kind") == "cluster" and depth != deepest:
        # before rebuilding: each level multiplies the time a rebuild takes
        return "FAILED", f"the record's depth is {depth!r}, the deepest entry's {deepest}"
    made = _made_by(record, "float" if doc.is_float else "exact", frame)
    if isinstance(made, BallArrangement):
        image, expected = made, document_from_arrangement(made)
    elif made.flavor != record.get("flavor"):
        return "FAILED", f"the record's flavor is {record.get('flavor')!r}, not {made.flavor!r}"
    else:
        image, expected = made.seed, document_from_cluster(made)
    if len(expected) != n:
        return "FAILED", f"the record makes {len(expected)} balls, the document holds {n}"
    i = first_difference(doc, expected)
    if i is not None:
        return "FAILED", f"entry {i} differs from what the record makes"
    p = image.polytope
    flag = flags(p)[0]
    ks = flag_curvatures(image, flag)
    case = (f"flag {flag} of the seed image", verify_flag_relation(p.family, ks), ks)
    return _residual_check([case], "windows", "no flags", f"{n} balls match the record")


def _tangent_cliques(balls, size: int):
    """Deterministic batch of at most TANGENT_TUPLES mutually tangent
    ``size``-tuples (by index) among the first TANGENT_NODES balls."""
    m = min(len(balls), TANGENT_NODES)
    adj = [[False] * m for _ in range(m)]
    for i, j, c in classified_pairs(balls[:m]):  # the pairs it skips are disjoint
        adj[i][j] = adj[j][i] = c == EXTERNALLY_TANGENT
    out = []

    def grow(clique, start):
        if len(out) >= TANGENT_TUPLES:
            return
        if len(clique) == size:
            out.append(tuple(clique))
            return
        for k in range(start, m):
            if all(adj[c][k] for c in clique):
                grow(clique + [k], k + 1)
                if len(out) >= TANGENT_TUPLES:
                    return

    grow([], 0)
    return out


def _check_soddy(doc: PackingDocument, balls, frame):
    cases = (
        (f"tuple {idx}", soddy_gosset_residual(ks), ks)
        for idx in _tangent_cliques(balls, doc.dimension + 2)
        for ks in [[balls[i].curvature for i in idx]]
    )
    n = len(balls)
    sampled = f"among the first {TANGENT_NODES} of {n} balls" if n > TANGENT_NODES else ""
    return _residual_check(cases, "tangent tuples", "no mutually tangent tuples found", sampled)


def _check_flags(doc: PackingDocument, balls, frame):
    seed = doc.seed
    if seed.get("kind") != "projection":
        raise ValueError("flag check applies only to project documents")
    s = solid_from_name(_recorded(seed, "solid", str))
    p = frame(s)
    if len(balls) != len(p.vertices):
        raise ValueError("document does not hold one ball per vertex")
    arr = BallArrangement(tuple(balls))
    chains = flags(p)
    residuals = exact_flag_residuals(s, chains, arr.curvatures())
    if residuals is not None:
        # exact: every residual must be zero; the first that is not fails
        # with the line of its scalar residual
        bad = [flag for flag, r in zip(chains, residuals) if r != (0, 0)][:1]
        if not bad:
            return ("ok", f"{len(chains)} flags, max relative residual 0") if chains else ("vacuous", "no flags")
        chains = bad
    # each face's mean curvature once, however many flags pass through it
    face_ks = {f: lorentzian_curvature(arr, f) for fs in p.faces_by_rank.values() for f in fs}
    whole = lorentzian_curvature(arr)
    cases = (
        (f"flag {flag}", verify_flag_relation(s, ks), ks)
        for flag in chains
        for ks in [(*(face_ks[f] for f in flag), whole)]
    )
    return _residual_check(cases, "flags", "no flags")


# each check takes the document, its balls and the polytope builder that the
# checks of one command share
_CHECKS = {
    "packing": _check_packing,
    "descartes": _check_descartes,
    "soddy": _check_soddy,
    "flags": _check_flags,
}


def _applicable_checks(doc: PackingDocument) -> list:
    names = ["packing"]
    kind = doc.seed.get("kind")
    if kind in ("projection", "dual-projection", "cluster"):
        names.append("descartes")
    if len(doc) >= doc.dimension + 2:
        names.append("soddy")
    if kind == "projection":
        names.append("flags")
    return names


def cmd_verify(args) -> int:
    doc = _read_doc(getattr(args, "in"))
    if args.checks:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in names if c not in _CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
    else:
        names = _applicable_checks(doc)
    balls = doc.balls()  # validates every ball's norm, once for all checks
    frame = functools.cache(regular_edge_scribed)  # each solid built once per command
    failed = False
    for name in names:
        status, detail = _CHECKS[name](doc, balls, frame)
        print(f"{name}: {status} ({detail})")
        failed = failed or status == "FAILED"
    return 1 if failed else 0


def cmd_integrality(args) -> int:
    if args.certify_depth is not None and args.certify_depth < 0:
        raise ValueError("depth must be nonnegative")
    s = solid_from_name(args.solid)
    tokens = _initial_tokens(args.initial)
    cert = integrality_condition(s, tuple(map(parse_exact_curvature, tokens)))
    print(f"certificate: {cert}")
    if cert == NOT_CERTIFIED:
        return 1
    if args.certify_depth is not None:
        record = {"kind": "cluster", "solid": s.name, "initial": tokens, "depth": args.certify_depth}
        cluster = _made_by(record)
        ring = RING_Z if cert == INTEGRAL else RING_Z_PHI
        ok = cluster.curvatures_in_ring(ring)
        print(
            f"depth-{args.certify_depth} curvatures in {ring}: "
            f"{'yes' if ok else 'NO'} ({len(cluster)} balls)"
        )
        if not ok:
            return 1
    return 0


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# the JSON type of each RenderSpec field in a spec file
_SPEC_KEYS = {
    "viewport": (
        "a list of 4 numbers",
        lambda x: isinstance(x, list) and len(x) == 4 and all(map(_number, x)),
    ),
    "stroke_width": ("a number", _number),
    "stroke": ("a string", lambda x: isinstance(x, str)),
    "palette": (
        "a list of strings",
        lambda x: isinstance(x, list) and all(isinstance(c, str) for c in x),
    ),
    "max_radius_clip": ("a number or null", lambda x: x is None or _number(x)),
    "halfspace_margin": ("a number", _number),
}


def _render_spec_from_file(path: str) -> RenderSpec:
    import json

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise ValueError(f"not a JSON render spec: {err}")
    if not isinstance(raw, dict):
        raise ValueError("the render spec is not a JSON object")
    unknown = set(raw) - set(_SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown render spec keys: {', '.join(sorted(unknown))}")
    for key, value in raw.items():
        what, ok = _SPEC_KEYS[key]
        if not ok(value):
            raise ValueError(f"render spec key {key!r} is not {what}")
    return RenderSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})


def cmd_render(args) -> int:
    doc = _read_doc(getattr(args, "in"))
    spec = _render_spec_from_file(args.spec) if args.spec else RenderSpec()
    svg = render_svg(doc, spec)
    p = _write_text(args.out, svg)
    print(f"wrote {p} ({len(doc)} elements)")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ballpack",
        description="Exact ball packings from edge-scribed regular polytopes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="project an edge-scribed solid to balls")
    p.add_argument("--solid", required=True)
    p.add_argument(
        "--center", choices=("vertex", "edge", "face", "none"), default="none"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("dual", help="facet balls of a projected document")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("spectra", help="print eigenvalue:multiplicity signature")
    p.add_argument("--solid", required=True)
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("cluster", help="grow a reflection cluster from a seed")
    p.add_argument("--solid", required=True)
    p.add_argument("--initial", required=True, help="three curvatures, e.g. -3,5,8")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("squares", help="walk whose n-th curvature is n^2")
    p.add_argument("--p", type=int, choices=(3, 4, 5), required=True)
    p.add_argument("--n-max", type=int, default=20)
    p.set_defaults(func=cmd_squares)

    p = sub.add_parser("verify", help="run residual checks on a document")
    p.add_argument("--in", required=True)
    p.add_argument(
        "--checks", default=None, help="comma list: descartes,soddy,flags,packing"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("integrality", help="certify curvature integrality")
    p.add_argument("--solid", required=True)
    p.add_argument("--initial", required=True)
    p.add_argument("--certify-depth", type=int, default=None)
    p.set_defaults(func=cmd_integrality)

    p = sub.add_parser("render", help="render a planar document to SVG")
    p.add_argument("--in", required=True)
    p.add_argument("--spec", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return ap


def _fold_value_options(argv) -> list:
    """Turn ["--initial", "-3,5,8"] into ["--initial=-3,5,8"].

    argparse otherwise mistakes a leading-dash value for an option; folding
    lets curvature lists start with a negative entry.
    """
    out = []
    for a in argv:
        if out and out[-1] == "--initial":
            out[-1] += f"={a}"
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_fold_value_options(list(argv)))
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
