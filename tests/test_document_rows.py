"""The document layer on rows against the entry-by-entry oracle.

``tests/document_oracle.py`` keeps the writer, loader, renderer and the
`verify` checks that worked on `lorentz.Entry` objects and exact scalars.
The row layer must print the same JSON, SVG and `verify` output, byte for
byte, for cluster documents of the five Platonic solids grown from exact
and float seeds, and for every projection and dual the CLI writes; and it
must load every text the oracle loads, to the same values, and refuse
every text the oracle refuses, with the same message.
"""

import contextlib
import functools
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import document_oracle as oracle
from ballpack import cli
from ballpack.apollonian import generate_cluster, platonic_generators
from ballpack.documents import (
    BLOCK,
    document_from_arrangement,
    document_from_cluster,
    document_from_entries,
    from_json,
    to_json,
)
from ballpack.exactnum import QuadScalar, phi
from ballpack.lorentz import Entry
from ballpack.polytopes import solid_from_name
from ballpack.svgout import RenderSpec, render_svg
from test_shell import MALFORMED, cluster_doc, edited

PHI = phi()
SEEDS = {
    "tetrahedron": ("-3,5,8", "0,0,1"),
    "octahedron": ("-2,4,5",),
    "cube": ("5,-3,12",),
    "icosahedron": ("-4,8,9",),
    "dodecahedron": ("1+phi,-1,2phi",),
}
SMALL = 200  # documents up to this size get the default checks, packing included


def curvature_token(x) -> str:
    """x in Q(sqrt 5) in the CLI's grammar, as a + b phi."""
    if not isinstance(x, QuadScalar) or x.is_rational:
        return str(Fraction(x.a if isinstance(x, QuadScalar) else x))
    a, b = x.a - x.b, 2 * x.b  # a + b sqrt5 = (a - b) + 2b phi
    return f"{a}{'+' if b >= 0 else '-'}{abs(b)}phi"


@st.composite
def exact_seeds(draw):
    """A Platonic seed scaled by a positive integer, rational or, for the
    solids over Q(sqrt 5), element of Z[phi], and read forwards or back."""
    solid = draw(st.sampled_from(sorted(SEEDS)))
    base = cli.parse_initial(draw(st.sampled_from(SEEDS[solid])), "exact")
    scale = Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 6)))
    if 5 in solid_from_name(solid).schlafli:
        scale = scale + draw(st.integers(0, 3)) * PHI
    triple = [scale * k for k in base]
    if draw(st.booleans()):
        triple.reverse()
    return solid, [curvature_token(k) for k in triple], "exact"


@st.composite
def float_seeds(draw):
    solid = draw(st.sampled_from(sorted(SEEDS)))
    ks = draw(st.lists(st.floats(-30, 60, allow_nan=False), min_size=3, max_size=3))
    return solid, [repr(k) for k in ks], "float"


def check_against_oracle(tmp_path, doc, old, checks=None):
    """The row document ``doc`` and the oracle's ``old`` of one arrangement or
    cluster: the same JSON, load, SVG and verify output."""
    text = to_json(doc)
    assert text == oracle.to_json(old)
    again = from_json(text)
    assert again == doc
    assert again.entries == oracle.from_json(text).entries
    if doc.dimension == 2:
        spec = RenderSpec(viewport=(-2.0, -1.5, 4.0, 3.0), max_radius_clip=3.0)
        assert render_svg(again) == oracle.render_svg(old)
        assert render_svg(again, spec) == oracle.render_svg(old, spec)
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    if checks is None and len(doc) > SMALL:
        checks = "descartes,soddy"
    argv = ["verify", "--in", str(path)] + (["--checks", checks] if checks else [])
    rc, out, err = oracle.verify(text, checks)
    got_out, got_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(got_out), contextlib.redirect_stderr(got_err):
        got_rc = cli.main(argv)
    assert (got_rc, got_out.getvalue(), got_err.getvalue()) == (rc, out, err)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                                  HealthCheck.too_slow])
@given(st.one_of(exact_seeds(), float_seeds()), st.integers(0, 2))
@example(seed=("cube", ["0.0", "0.0", "5.896640133697064e-230"], "float"), depth=0)
@example(seed=("dodecahedron", ["0.0", "0.0", "8.934313095693387e-69"], "float"), depth=2)
def test_cluster_documents_match_the_oracle(tmp_path, seed, depth):
    solid, initial, mode = seed
    record = {"kind": "cluster", "solid": solid, "initial": initial, "depth": depth}
    try:
        made = cli._made_by(record, mode)
    except ValueError:
        assume(False)  # not realizable on this solid
    record["flavor"] = made.flavor
    doc = document_from_cluster(made, solid=solid, seed=record)
    old = oracle.document_from_cluster(made, solid=solid, seed=record)
    check_against_oracle(tmp_path, doc, old)


# (solid, seed curvatures, depth, numeric mode, store mode): the README
# seeds, whose cube generators reach denominator 132,098, and a scaled seed
# whose rows are python ints
CANONICAL = [
    *((solid, initials[0], depth, mode, "i64" if mode == "exact" else "float")
      for solid, initials in SEEDS.items() for depth in (0, 1, 2) for mode in ("exact", "float")),
    ("tetrahedron", "-3000,5000,8000", 2, "exact", "obj"),
]


@pytest.mark.parametrize("solid,initial,depth,mode,store", CANONICAL)
def test_a_cluster_document_is_the_document_of_its_entries(solid, initial, depth, mode, store):
    """The engine keeps its rows in the one canonical form: the rows that
    a document makes of the cluster's entries."""
    record = {"kind": "cluster", "solid": solid, "initial": initial.split(","), "depth": depth}
    made = cli._made_by(record, mode)
    assert made._store.mode == store
    assert document_from_cluster(made) == document_from_entries(made.seed.dimension, made)


def test_a_full_symmetry_cluster_document_is_the_document_of_its_entries():
    gens = platonic_generators(solid_from_name("cube"))
    made = generate_cluster(gens.seed, gens, 4)
    assert document_from_cluster(made) == document_from_entries(made.seed.dimension, made)


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_a_document_of_entries_refuses_a_non_finite_float_as_the_loader_does(bad):
    with pytest.raises(ValueError) as made:
        document_from_entries(2, [Entry((0.0, 1.0, 1.0, 1.0)), Entry((bad, 0.0, 0.0, 1.0))])
    text = to_json(document_from_entries(2, [Entry((1.0, 0.0, 0.0, 0.0))]))
    text = text.replace("1.0,", f"{json.dumps(bad)},", 1)  # what to_json printed for it
    with pytest.raises(ValueError) as loaded:
        from_json(text)
    assert str(made.value) == str(loaded.value) == f"float document holds a non-finite number {bad!r}"


PROJECTED = ("triangle", "square", "ngon-5", "tetrahedron", "octahedron", "cube", "icosahedron",
             "dodecahedron", "simplex-4", "cube-4", "orthoplex-4", "simplex-5", "cube-5",
             "orthoplex-5")


@pytest.mark.parametrize("center", ["none", "vertex", "edge", "face"])
@pytest.mark.parametrize("solid", PROJECTED)
def test_projection_documents_match_the_oracle(tmp_path, solid, center):
    for kind in ("projection", "dual-projection"):
        key = "solid" if kind == "projection" else "primal"
        record = {"kind": kind, key: solid, "center": center}
        try:
            made = cli._made_by(record)
        except ValueError:  # a centering the solid lacks, or a dual it has not
            continue
        doc = document_from_arrangement(made, solid=solid, seed=record)
        old = oracle.document_from_arrangement(made, solid=solid, seed=record)
        checks = None if made.dimension <= 3 else "packing,descartes,soddy"
        check_against_oracle(tmp_path, doc, old, checks)


@functools.lru_cache(maxsize=None)
def cluster_text(solid: str, initial: tuple, depth: int) -> str:
    return to_json(cluster_doc(initial, depth, solid_from_name(solid)))


def _variants(draw, text: str) -> str:
    """An equivalent spelling of an exact scalar: fractions scaled by k, a
    leading "+", a zero radical part in some field."""
    mt = oracle._SCALAR_RE.match(text)
    k = draw(st.integers(1, 5))
    sign = "+" if draw(st.booleans()) and not mt["an"].startswith("-") else ""
    out = f"{sign}{int(mt['an']) * k}/{int(mt['ad'] or 1) * k}"
    if mt["m"] is not None:
        j = draw(st.integers(1, 5))
        out += f"{mt['sign']}{int(mt['bn']) * j}/{int(mt['bd'] or 1) * j}√{mt['m']}"
    elif draw(st.booleans()):
        out += f"{draw(st.sampled_from('+-'))}0/{k}√{draw(st.sampled_from([2, 4, 5, 9]))}"
    return out


@settings(max_examples=20, deadline=None)
@given(st.data(), st.sampled_from([("tetrahedron", (-3, 5, 8)), ("icosahedron", (-4, 8, 9))]))
def test_from_json_reads_every_spelling_the_oracle_reads(data, seed):
    text = cluster_text(*seed, 1)

    def respell(payload):
        for e in payload["entries"]:
            e["inversive"] = [_variants(data.draw, x) for x in e["inversive"]]

    spelled = edited(text, respell)
    doc, old = from_json(spelled), oracle.from_json(spelled)
    assert doc.entries == old.entries and doc.mode == old.mode
    assert to_json(doc) == text


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789+-/√\n ٣", min_size=0, max_size=9), st.integers(0, 3))
def test_from_json_reads_or_refuses_each_scalar_as_the_oracle_does(scalar, where):
    text = edited(cluster_text("tetrahedron", (-3, 5, 8), 0),
                  lambda d: d["entries"][1]["inversive"].__setitem__(where, scalar))
    try:
        want = oracle.from_json(text)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            from_json(text)
        assert str(got.value) == str(err)
        return
    assert from_json(text).entries == want.entries


def assert_refused_as_the_oracle_refuses(text: str):
    with pytest.raises(ValueError) as want:
        oracle.from_json(text)
    with pytest.raises(ValueError) as got:
        from_json(text)
    assert str(got.value) == str(want.value)


LONG_NUMBER = "1" * 5000  # beyond int's digit limit for string conversion


@pytest.mark.parametrize(
    "key,where,text",
    [
        ("radius", None, "1/00"),
        ("inversive", 0, "1/00"),
        ("inversive", 0, f"1+0/{LONG_NUMBER}√2"),
        ("inversive", 0, f"1+0/1√{LONG_NUMBER}"),
    ],
    ids=["derived-zero-denominator", "inversive-zero-denominator", "long-denominator-of-zero",
         "long-radicand-of-zero"],
)
def test_every_number_of_a_scalar_is_read_as_the_oracle_reads_it(key, where, text):
    def edit(payload):
        entry = payload["entries"][1]
        if where is None:
            entry[key] = text
        else:
            entry[key][where] = text

    assert_refused_as_the_oracle_refuses(edited(cluster_text("tetrahedron", (-3, 5, 8), 0), edit))


@pytest.mark.parametrize("mangle", MALFORMED)
def test_from_json_refuses_what_the_oracle_refuses_with_its_message(mangle):
    assert_refused_as_the_oracle_refuses(mangle(cluster_text("tetrahedron", (0, 0, 1), 1)))


@pytest.mark.parametrize("mode", ["float", "Q", "Q(√5)"])
def test_an_empty_document_is_written_as_the_oracle_writes_it(mode):
    text = json.dumps({"dimension": 2, "mode": mode, "solid": None, "seed": {}, "entries": []})
    assert to_json(from_json(text)) == oracle.to_json(oracle.from_json(text))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_document_of_several_blocks_matches_the_oracle(tmp_path, mode):
    """The tetrahedron at depth 6 holds 1,460 balls: several blocks of
    entries, the last one partial."""
    record = {"kind": "cluster", "solid": "tetrahedron", "initial": ["-3", "5", "8"], "depth": 6}
    made = cli._made_by(record, mode)
    record["flavor"] = made.flavor
    assert len(made) > 2 * BLOCK and len(made) % BLOCK
    doc = document_from_cluster(made, solid="tetrahedron", seed=record)
    old = oracle.document_from_cluster(made, solid="tetrahedron", seed=record)
    check_against_oracle(tmp_path, doc, old, "descartes")


# faults that an entry's own checks find: a wrong JSON type, and a scalar
# the grammar refuses
TYPE_FAULTS = {
    "word": lambda e: e.update(word=5),
    "depth": lambda e: e.update(depth="1"),
    "letter": lambda e: e.update(word=[7]),
    "entry": lambda e: e.clear(),
    "curvature": lambda e: e.update(curvature=3),
}
SCALAR_FAULTS = {
    "inversive": lambda e: e["inversive"].__setitem__(2, "1.5"),
    "zero-denominator": lambda e: e["inversive"].__setitem__(0, "1/0"),
    "radius": lambda e: e.update(radius="2√"),
    "newline": lambda e: e["inversive"].__setitem__(3, "7\n"),
}


@pytest.mark.parametrize("at", [(3, BLOCK // 2), (BLOCK // 2, 3), (100, BLOCK + 7), (BLOCK + 7, 100),
                                (BLOCK - 1, BLOCK)])
@pytest.mark.parametrize("scalar", sorted(SCALAR_FAULTS))
@pytest.mark.parametrize("kind", sorted(TYPE_FAULTS))
def test_the_first_of_two_faults_is_named_as_the_oracle_names_it(kind, scalar, at):
    """A wrong JSON type in one entry and a malformed scalar in another, in
    either order, in one block or in two: the first in entry order is named."""
    text = cluster_text("tetrahedron", (-3, 5, 8), 6)

    def mangle(payload):
        entries = payload["entries"]
        TYPE_FAULTS[kind](entries[at[0]])
        SCALAR_FAULTS[scalar](entries[at[1]])

    assert_refused_as_the_oracle_refuses(edited(text, mangle))


# faults of the document as a whole, named only after every entry is checked
DOCUMENT_FAULTS = {
    "coordinates": lambda e: e["inversive"].append("1"),
    "fields": lambda e: e["inversive"].__setitem__(0, "0+1√3"),
}


@pytest.mark.parametrize("at", [(3, BLOCK // 2), (BLOCK // 2, 3), (100, BLOCK + 7), (BLOCK + 7, 100)])
@pytest.mark.parametrize("scalar", [None, *sorted(SCALAR_FAULTS)])
@pytest.mark.parametrize("kind", sorted(DOCUMENT_FAULTS))
def test_a_document_fault_is_named_after_every_entry_fault(kind, scalar, at):
    text = cluster_text("tetrahedron", (-3, 5, 8), 6)

    def mangle(payload):
        entries = payload["entries"]
        DOCUMENT_FAULTS[kind](entries[at[0]])
        if scalar:
            SCALAR_FAULTS[scalar](entries[at[1]])

    assert_refused_as_the_oracle_refuses(edited(text, mangle))


@pytest.mark.parametrize("x", [2**53 + 1, 2**63 + 1025, -(2**64) - 1, 3 * 10**300])
def test_a_float_document_reads_an_integer_as_float_does(x):
    text = edited(to_json(cluster_doc((1.0, 2.0, 3.0), 1)),
                  lambda d: d["entries"][1]["inversive"].__setitem__(2, x))
    assert from_json(text).rows["V"][1, 2] == float(x)
    assert from_json(text).entries == oracle.from_json(text).entries
