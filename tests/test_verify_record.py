"""`verify`'s descartes check against the seed record, with planted faults.

Each fault keeps the document loadable and every ball a unit vector, so
only the comparison with what the record makes, or the exact flag residual,
can catch it.
"""

import contextlib
import dataclasses
import io
import json
import math
from fractions import Fraction

import pytest

from ballpack.cli import main
from ballpack.documents import document_from_entries, from_json, to_json
from ballpack.exactnum import FLOAT_REL
from ballpack.lorentz import Entry, ball_from_geometry


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue().splitlines()


def _write(tmp_path, argv):
    path = tmp_path / "doc.json"
    assert main([*argv, "--out", str(path)]) == 0
    return path


def _shrunk(e: Entry, dimension: int, factor) -> Entry:
    """The disk of ``e`` with its curvature multiplied by ``factor``, same center."""
    ball = ball_from_geometry(dimension, center=e.geometry.center, curvature=e.curvature * factor)
    return dataclasses.replace(e, inversive=ball.v)


def _edit_entries(path, edit):
    doc = from_json(path.read_text(encoding="utf-8"))
    entries = list(doc.entries)
    edit(entries, doc.dimension)
    edited = document_from_entries(doc.dimension, entries, solid=doc.solid, seed=doc.seed)
    path.write_text(to_json(edited), encoding="utf-8")


def _first_disk(entries) -> int:
    return next(i for i, e in enumerate(entries) if e.geometry.kind == "sphere" and e.curvature > 0)


def _shrink_first_disk(factor):
    def edit(entries, dimension):
        i = _first_disk(entries)
        entries[i] = _shrunk(entries[i], dimension, factor)

    return edit


def _swap(i, j):
    def edit(entries, dimension):
        entries[i], entries[j] = entries[j], entries[i]

    return edit


def _edit_word(entries, dimension):
    i = next(i for i, e in enumerate(entries) if len(e.word) == 2)
    entries[i] = dataclasses.replace(entries[i], word=entries[i].word[::-1])


def _edit_record(key, value):
    def edit(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["seed"][key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")

    return edit


TETRA_CLUSTER = ["cluster", "--solid", "tetrahedron", "--initial=-3,5,8", "--depth", "2"]
TETRA_PROJECTION = ["project", "--solid", "tetrahedron"]


@pytest.mark.parametrize(
    "argv,edit_path,why",
    [
        (TETRA_PROJECTION, lambda p: _edit_entries(p, _shrink_first_disk(1 + Fraction(1, 10**12))),
         "entry 1 differs from what the record makes"),
        (TETRA_CLUSTER, lambda p: _edit_entries(p, _shrink_first_disk(2)),
         "entry 1 differs from what the record makes"),
        (TETRA_CLUSTER, _edit_record("initial", ["-6", "10", "16"]),
         "entry 0 differs from what the record makes"),
        (TETRA_CLUSTER, lambda p: _edit_entries(p, _edit_word),
         "entry 8 differs from what the record makes"),
        (TETRA_CLUSTER, lambda p: _edit_entries(p, _swap(3, 7)),
         "entry 3 differs from what the record makes"),
        (TETRA_CLUSTER, _edit_record("depth", 40),
         "the record's depth is 40, the deepest entry's 2"),
        (TETRA_CLUSTER, _edit_record("flavor", "SSA"),
         "the record's flavor is 'SSA', not 'A'"),
    ],
    ids=["shrunk-disk-projection", "swapped-ball", "edited-initial", "edited-word",
         "swapped-entries", "edited-depth", "edited-flavor"],
)
def test_descartes_fails_on_a_planted_fault(argv, edit_path, why, tmp_path):
    path = _write(tmp_path, argv)
    assert _run(["verify", "--in", str(path)])[0] == 0
    edit_path(path)
    rc, lines = _run(["verify", "--in", str(path)])
    assert rc == 1
    assert lines[0].startswith("packing: ok (")  # every fault keeps the packing
    assert f"descartes: FAILED ({why})" in lines


def test_float_entries_match_their_record_within_the_float_window(tmp_path):
    """A rebuild on other hardware may differ in the last bits of a float;
    a moved ball still fails."""
    path = _write(tmp_path, [*TETRA_CLUSTER, "--mode", "float"])

    def nudge(entries, dimension):
        v = list(entries[5].inversive)
        v[0] = math.nextafter(v[0], math.inf)
        entries[5] = dataclasses.replace(entries[5], inversive=tuple(v))

    _edit_entries(path, nudge)
    rc, lines = _run(["verify", "--in", str(path), "--checks", "descartes"])
    assert rc == 0 and lines[0].startswith("descartes: ok (1 windows, "), lines
    _edit_entries(path, _shrink_first_disk(1 + 1e-6))
    assert _run(["verify", "--in", str(path), "--checks", "descartes"]) == (
        1,
        ["descartes: FAILED (entry 1 differs from what the record makes)"],
    )


def test_an_exact_flag_residual_must_be_zero(tmp_path):
    path = _write(tmp_path, TETRA_PROJECTION)
    _edit_entries(path, _shrink_first_disk(1 + Fraction(1, 10**12)))
    rc, lines = _run(["verify", "--in", str(path), "--checks", "packing,flags"])
    assert rc == 1
    assert lines[0] == "packing: ok (4 balls, 6 pairs)"
    assert lines[1].startswith("flags: FAILED (flag ")


def test_a_boolean_record_depth_is_not_an_integer(tmp_path, capsys):
    path = _write(tmp_path, [*TETRA_CLUSTER[:-1], "1"])
    _edit_record("depth", True)(path)
    capsys.readouterr()
    assert main(["verify", "--in", str(path), "--checks", "descartes"]) == 2
    assert capsys.readouterr().err == (
        "error: seed record field 'depth' is missing or not a JSON int\n"
    )


@pytest.mark.parametrize("solid", [5, None, ["tetrahedron"]], ids=["int", "missing", "list"])
def test_the_flags_check_refuses_a_record_solid_that_is_not_a_string(solid, tmp_path, capsys):
    path = _write(tmp_path, TETRA_PROJECTION)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if solid is None:
        del payload["seed"]["solid"]
    else:
        payload["seed"]["solid"] = solid
    path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--in", str(path), "--checks", "flags"]) == 2
    assert capsys.readouterr().err == (
        "error: seed record field 'solid' is missing or not a JSON str\n"
    )


def test_descartes_needs_a_seed_record(tmp_path, capsys):
    path = _write(tmp_path, TETRA_CLUSTER)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["seed"] = {}
    path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 0
    assert "descartes" not in capsys.readouterr().out
    assert main(["verify", "--in", str(path), "--checks", "descartes"]) == 2
    assert capsys.readouterr().err == (
        "error: the document has no projection, dual-projection or cluster record\n"
    )


def test_a_record_with_an_unknown_center_is_refused(tmp_path, capsys):
    path = _write(tmp_path, TETRA_PROJECTION)
    _edit_record("center", "middle")(path)
    capsys.readouterr()
    for argv in (["verify", "--in", str(path)], ["dual", "--in", str(path), "--out", str(tmp_path / "d.json")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: seed record field 'center' is 'middle', not none, vertex, edge or face\n"
        )


def test_a_vacuous_check_says_so_and_keeps_exit_code_zero(tmp_path):
    path = _write(tmp_path, ["cluster", "--solid", "octahedron", "--initial=-2,4,5", "--depth", "2"])
    assert _run(["verify", "--in", str(path), "--checks", "soddy"]) == (
        0,
        ["soddy: vacuous (no mutually tangent tuples found, among the first 48 of 198 balls)"],
    )


@pytest.mark.parametrize("center", ["none", "vertex", "edge", "face"])
@pytest.mark.parametrize("solid", ["tetrahedron", "octahedron", "cube", "icosahedron", "dodecahedron"])
def test_verify_passes_on_platonic_projections_and_their_duals(solid, center, tmp_path):
    path = _write(tmp_path, ["project", "--solid", solid, "--center", center])
    dual = tmp_path / "dual.json"
    assert main(["dual", "--in", str(path), "--out", str(dual)]) == 0
    for doc in (path, dual):
        rc, lines = _run(["verify", "--in", str(doc)])
        assert rc == 0, lines
        assert lines[1].startswith("descartes: ok (1 windows, ")


# the float documents of the benchmark's doc_chain workload
FLOAT_CHAIN = [
    ("tetrahedron", "-3,5,8", 7),
    ("octahedron", "-2,4,5", 3),
    ("dodecahedron", "1+phi,-1,2phi", 2),
]


@pytest.mark.parametrize("solid,initial,depth", FLOAT_CHAIN)
def test_float_chain_documents_match_their_record_up_to_the_float_window(solid, initial, depth, tmp_path):
    """Every float ball matches its rebuild, and a coordinate moved by 1.5
    times the window fails where half of it passes.  The window is FLOAT_REL
    max(1, largest coordinate); the coordinate moved is a small one, so that
    the ball still passes the norm check."""
    argv = ["cluster", "--solid", solid, f"--initial={initial}", "--depth", str(depth), "--mode", "float"]
    path = _write(tmp_path, argv)
    payload = json.loads(path.read_text(encoding="utf-8"))
    n = len(payload["entries"])
    verify = ["verify", "--in", str(path), "--checks", "descartes,soddy"]
    rc, lines = _run(verify)
    assert rc == 0 and lines[0].endswith(f", {n} balls match the record)"), lines
    i, row = next(
        (i, e["inversive"]) for i, e in reversed(list(enumerate(payload["entries"])))
        if min(map(abs, e["inversive"])) < max(map(abs, e["inversive"])) / 4
    )
    j = min(range(len(row)), key=lambda k: abs(row[k]))
    window = FLOAT_REL * max(1.0, max(map(abs, row)))
    x = row[j]
    for shift, want in ((0.5, (0, f"{n} balls match the record")),
                        (1.5, (1, f"entry {i} differs from what the record makes"))):
        row[j] = x + shift * window
        path.write_text(json.dumps(payload), encoding="utf-8")
        rc, lines = _run(verify)
        assert (rc, want[1] in lines[0]) == (want[0], True), lines
