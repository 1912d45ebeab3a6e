"""`verify` stdout and exit codes on a fixed document set, byte for byte.

The set is that of the benchmark's `full_verify` workload: three exact
clusters, six projections and one cluster with a planted overlapping ball.
GOLDEN's packing and flags lines are what `verify` printed before the pair
loop was screened; its descartes lines are those of the check against the
seed record, and its soddy lines say `vacuous` where no tuple was found.  So
any change in what the packing, descartes, soddy or flags checks report
shows here.
"""

import contextlib
import io

import pytest

from ballpack.cli import main
from ballpack.documents import PackingDocument, document_from_entries, from_json, to_json
from ballpack.lorentz import Entry, ball_from_geometry

CLUSTERS = {
    "octahedron-d2": ("octahedron", "-2,4,5", 2),
    "tetrahedron-d4": ("tetrahedron", "-3,5,8", 4),
    "cube-d2": ("cube", "5,-3,12", 2),
}
PROJECTIONS = ("icosahedron", "dodecahedron", "cube-4", "orthoplex-4", "cube-5", "simplex-5")
PLANT_BASE = ("octahedron", "-2,4,5", 1)
PLANT_FROM, PLANT_AT = 7, 11  # a copy of disk PLANT_FROM, moved, goes in at PLANT_AT


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def _planted(base: PackingDocument) -> PackingDocument:
    """``base`` with one more disk: entry PLANT_FROM moved by its radius along
    the first axis, inserted at PLANT_AT."""
    e = base.entries[PLANT_FROM]
    geo = e.geometry
    center = (geo.center[0] + geo.radius,) + tuple(geo.center[1:])
    ball = ball_from_geometry(base.dimension, center=center, curvature=e.curvature)
    entries = list(base.entries)
    entries.insert(PLANT_AT, Entry(ball.v))
    return document_from_entries(base.dimension, entries, solid=base.solid, seed=base.seed)


def verify_outputs(tmp_path) -> dict:
    """name -> (exit code, stdout) of ``verify`` with the default checks."""
    paths = {}
    for name, (solid, initial, depth) in CLUSTERS.items():
        paths[name] = tmp_path / f"{name}.json"
        argv = ["cluster", "--solid", solid, f"--initial={initial}", "--depth", str(depth)]
        assert _run(argv + ["--out", str(paths[name])])[0] == 0
    for solid in PROJECTIONS:
        name = f"{solid}-projection"
        paths[name] = tmp_path / f"{name}.json"
        assert _run(["project", "--solid", solid, "--out", str(paths[name])])[0] == 0
    solid, initial, depth = PLANT_BASE
    base = tmp_path / "plant-base.json"
    argv = ["cluster", "--solid", solid, f"--initial={initial}", "--depth", str(depth)]
    assert _run(argv + ["--out", str(base)])[0] == 0
    paths["planted"] = tmp_path / "planted.json"
    planted = _planted(from_json(base.read_text(encoding="utf-8")))
    paths["planted"].write_text(to_json(planted), encoding="utf-8")
    return {name: _run(["verify", "--in", str(p)]) for name, p in paths.items()}


GOLDEN = {
    "cube-4-projection": (
        0,
        "packing: ok (16 balls, 120 pairs)\n"
        "descartes: ok (1 windows, max relative residual 0, 16 balls match the record)\n"
        "soddy: vacuous (no mutually tangent tuples found)\n"
        "flags: ok (384 flags, max relative residual 0)\n"
    ),
    "cube-5-projection": (
        0,
        "packing: ok (32 balls, 496 pairs)\n"
        "descartes: ok (1 windows, max relative residual 0, 32 balls match the record)\n"
        "soddy: vacuous (no mutually tangent tuples found)\n"
        "flags: ok (3840 flags, max relative residual 0)\n"
    ),
    "cube-d2": (
        0,
        "packing: ok (152 balls, 11476 pairs)\n"
        "descartes: ok (1 windows, max relative residual 0, 152 balls match the record)\n"
        "soddy: vacuous (no mutually tangent tuples found, among the first 48 of 152 balls)\n"
    ),
    "dodecahedron-projection": (
        0,
        "packing: ok (20 balls, 190 pairs)\n"
        "descartes: ok (1 windows, max relative residual 0, 20 balls match the record)\n"
        "soddy: vacuous (no mutually tangent tuples found)\n"
        "flags: ok (120 flags, max relative residual 0)\n"
    ),
    "icosahedron-projection": (
        0,
        "packing: ok (12 balls, 66 pairs)\n"
        "descartes: ok (1 windows, max relative residual 0, 12 balls match the record)\n"
        "soddy: vacuous (no mutually tangent tuples found)\n"
        "flags: ok (120 flags, max relative residual 0)\n"
    ),
    "octahedron-d2": (
        0,
        "packing: ok (198 balls, 19503 pairs)\n"
        "descartes: ok (1 windows, max relative residual 0, 198 balls match the record)\n"
        "soddy: vacuous (no mutually tangent tuples found, among the first 48 of 198 balls)\n"
    ),
    "orthoplex-4-projection": (
        0,
        "packing: ok (8 balls, 28 pairs)\n"
        "descartes: ok (1 windows, max relative residual 0, 8 balls match the record)\n"
        "soddy: vacuous (no mutually tangent tuples found)\n"
        "flags: ok (384 flags, max relative residual 0)\n"
    ),
    "planted": (
        1,
        "packing: FAILED (balls 0 and 11 are overlapping)\n"
        "descartes: FAILED (the record makes 30 balls, the document holds 31)\n"
        "soddy: vacuous (no mutually tangent tuples found)\n"
    ),
    "simplex-5-projection": (
        0,
        "packing: ok (6 balls, 15 pairs)\n"
        "descartes: ok (1 windows, max relative residual 6.04e-16, 6 balls match the record)\n"
        "soddy: ok (1 tangent tuples, max relative residual 3.55e-15)\n"
        "flags: ok (720 flags, max relative residual 7.96e-16)\n"
    ),
    "tetrahedron-d4": (
        0,
        "packing: ok (164 balls, 13366 pairs)\n"
        "descartes: ok (1 windows, max relative residual 0, 164 balls match the record)\n"
        "soddy: ok (45 tangent tuples, max relative residual 0, among the first 48 of 164 balls)\n"
    ),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return verify_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_stdout_and_exit_code_are_unchanged(name, outputs):
    assert outputs[name] == GOLDEN[name]


def test_planted_overlap_is_named_by_its_pair(outputs):
    rc, out = outputs["planted"]
    assert rc == 1
    assert f"and {PLANT_AT} are overlapping)" in out.splitlines()[0]
