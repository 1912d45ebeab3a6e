"""Documents, SVG rendering, and the command-line front end."""

import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ballpack.cli import main, parse_exact_curvature, parse_initial
from ballpack.documents import (
    PackingDocument,
    document_from_arrangement,
    document_from_cluster,
    _parse,
    from_json,
    scalar_to_text,
    to_json,
)
from ballpack.exactnum import QuadScalar, approx, phi, quad_value, sqrt_int
from ballpack.lorentz import Ball, ball_from_geometry
from ballpack.apollonian import (
    apollonian_group_from_packing,
    generate_cluster,
    packing_from_curvatures,
)
from ballpack.packings import BallArrangement, dual, project, with_dual
from ballpack.polytopes import CUBE, TETRAHEDRON, regular_edge_scribed, solid_from_name
from ballpack.svgout import DEFAULT_PALETTE, RenderSpec, render_svg

PHI = phi()
SQRT2 = sqrt_int(2)


# -- exact scalar text --------------------------------------------------------


def scalar_from_text(s: str):
    """The loader's reading of one exact scalar's text: a Fraction or a QuadScalar."""
    *quad, m = _parse(s)
    return quad_value(quad, m)


@pytest.mark.parametrize(
    "value,text",
    [
        (Fraction(0), "0"),
        (Fraction(-3), "-3"),
        (Fraction(5, 2), "5/2"),
        (Fraction(-7, 3), "-7/3"),
        (SQRT2, "0+1√2"),
        (-SQRT2, "0-1√2"),
        (PHI, "1/2+1/2√5"),
        (1 + 2 * PHI, "2+1√5"),
        (QuadScalar(Fraction(-1, 2), Fraction(-3, 4), 2), "-1/2-3/4√2"),
    ],
)
def test_scalar_text_fixed_cases(value, text):
    assert scalar_to_text(value) == text
    assert scalar_from_text(text) == value


def test_scalar_text_drops_vanishing_radical_parts():
    x = SQRT2 - SQRT2 + Fraction(3, 2)
    assert scalar_to_text(x) == "3/2"
    assert scalar_from_text("3/2") == Fraction(3, 2)


@pytest.mark.parametrize("bad", ["", "1.5", "sqrt2", "1+2", "2√", "1/0", "1 + 1√2"])
def test_scalar_text_rejects_garbage(bad):
    with pytest.raises(ValueError):
        scalar_from_text(bad)


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.sampled_from([2, 3, 5]),
)
def test_scalar_text_round_trips(a, b, m):
    x = QuadScalar(a, b, m) if b else Fraction(a)
    assert scalar_from_text(scalar_to_text(x)) == x


# -- documents ----------------------------------------------------------------


def tetra_doc():
    arr = project(regular_edge_scribed(TETRAHEDRON))
    return document_from_arrangement(
        arr,
        solid="tetrahedron",
        seed={"kind": "projection", "solid": "tetrahedron", "center": "none"},
    )


def cluster_doc(initial, depth, solid=TETRAHEDRON):
    seed = packing_from_curvatures(solid, initial)
    c = generate_cluster(seed, apollonian_group_from_packing(seed), depth)
    return document_from_cluster(c, solid=solid.name)


README_CLI_SEEDS = (
    ("tetrahedron", "-3,5,8"),
    ("octahedron", "-2,4,5"),
    ("cube", "5,-3,12"),
    ("icosahedron", "-4,8,9"),
    ("dodecahedron", "1+phi,-1,2phi"),
)


def test_projection_document_fields():
    doc = tetra_doc()
    assert doc.dimension == 2
    assert doc.mode == "Q(√2)"
    assert doc.solid == "tetrahedron"
    assert len(doc.entries) == 4
    assert [e.orbit for e in doc.entries] == [0, 1, 2, 3]
    assert all(e.depth == 0 and e.word == () for e in doc.entries)
    for e in doc.entries:
        geo = e.geometry
        assert (geo.center is None) == (geo.normal is not None)
    # the rebuilt balls match the stored coordinates exactly
    arr = project(regular_edge_scribed(TETRAHEDRON))
    assert [e.ball.v for e in doc.entries] == [b.v for b in arr.balls]


def test_exact_document_round_trip_is_bit_exact():
    doc = cluster_doc((-3, 5, 8), 2)
    text = to_json(doc)
    again = from_json(text)
    assert to_json(again) == text
    assert again.mode == doc.mode
    assert [e.inversive for e in again.entries] == [
        e.inversive for e in doc.entries
    ]
    assert [e.word for e in again.entries] == [e.word for e in doc.entries]


def test_float_document_round_trip_is_bit_exact():
    doc = cluster_doc((1.0, 2.0, 3.0), 2)
    assert doc.mode == "float"
    text = to_json(doc)
    again = from_json(text)
    assert to_json(again) == text
    assert [e.inversive for e in again.entries] == [
        e.inversive for e in doc.entries
    ]


def test_cluster_document_carries_provenance():
    doc = cluster_doc((-3, 5, 8), 2)
    assert doc.entries[0].depth == 0
    deepest = doc.entries[-1]
    assert deepest.depth == 2
    assert len(deepest.word) == 2
    assert {e.orbit for e in doc.entries} <= {0, 1, 2, 3}


def test_halfspace_entries_store_normal_and_offset():
    arr = BallArrangement(
        (
            ball_from_geometry(2, normal=(0, 1), offset=Fraction(1)),
            ball_from_geometry(2, center=(0, 0), curvature=Fraction(1)),
        )
    )
    doc = document_from_arrangement(arr)
    half, disk = (e.geometry for e in doc.entries)
    assert (half.normal, half.offset) == ((0, 1), Fraction(1))
    assert half.center is None
    assert disk.center == (0, 0)
    assert disk.radius == 1
    text = to_json(doc)
    assert from_json(text).entries[0].geometry.offset == Fraction(1)
    assert json.loads(text)["entries"][0]["halfspace"] == {"normal": ["0", "1"], "offset": "1"}


# a wrong JSON type or a missing field, with the field that its error names
WRONG_FIELDS = [
    ("dimension", lambda p: edited(p, lambda d: d.update(dimension=[2]))),
    ("mode", lambda p: edited(p, lambda d: d.update(mode=["Q"]))),
    ("seed", lambda p: edited(p, lambda d: d.update(seed=5))),
    ("solid", lambda p: edited(p, lambda d: d.update(solid=3))),
    ("word", lambda p: edited(p, lambda d: d["entries"][-1].update(word=5))),
    ("word", lambda p: edited(p, lambda d: d["entries"][-1].update(word=[5]))),
    ("depth", lambda p: edited(p, lambda d: d["entries"][-1].update(depth=[1]))),
    ("orbit", lambda p: edited(p, lambda d: d["entries"][-1].update(orbit=[0]))),
    ("inversive", lambda p: edited(p, lambda d: d["entries"][0].pop("inversive"))),
    ("curvature", lambda p: edited(p, lambda d: d["entries"][0].pop("curvature"))),
    ("center", lambda p: edited(p, lambda d: first_with(d, "center").pop("center"))),
]


# a document that from_json must refuse, made from a valid document's text
MALFORMED = [
    lambda p: json.dumps({"mode": "Q"}),
    lambda p: "not json at all {",
    lambda p: p.replace('"dimension": 2', '"dimension": 3'),
    lambda p: p.replace('"1"', '"1.5"', 1),
    lambda p: "[]",
    lambda p: edited(p, lambda d: d.update(entries=5)),
    lambda p: edited(p, lambda d: d["entries"].append(5)),
    lambda p: edited(p, lambda d: d["entries"][0].update(inversive=5)),
    lambda p: edited(p, lambda d: first_with(d, "center").update(center=5)),
    lambda p: edited(p, lambda d: first_with(d, "halfspace")["halfspace"].update(normal=5)),
    lambda p: edited(p, lambda d: first_with(d, "radius").update(radius="7.0")),
    *(mangle for _, mangle in WRONG_FIELDS),
]


@pytest.mark.parametrize("mangle", MALFORMED)
def test_from_json_rejects_malformed_documents(mangle):
    text = to_json(cluster_doc((0, 0, 1), 1))
    with pytest.raises(ValueError):
        from_json(mangle(text))


@pytest.mark.parametrize("field,mangle", WRONG_FIELDS)
def test_from_json_names_the_malformed_field(field, mangle):
    text = to_json(cluster_doc((0, 0, 1), 1))
    with pytest.raises(ValueError, match=f"'{field}'"):
        from_json(mangle(text))


@pytest.mark.parametrize("dimension", [0, -1, -2])
def test_a_dimension_below_one_is_refused_at_load(dimension, tmp_path, capsys):
    text = json.dumps({"dimension": dimension, "mode": "Q", "entries": []})
    with pytest.raises(ValueError, match="'dimension'"):
        from_json(text)
    path = tmp_path / "d.json"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: 'dimension' is {dimension}, not a positive integer\n"


@pytest.mark.parametrize("mode", ["banana", "Q(√5)", "Q", "Q(√3)"])
def test_from_json_rejects_a_mode_its_vectors_contradict(mode):
    doc = document_from_arrangement(project(regular_edge_scribed(TETRAHEDRON)))
    assert doc.mode == "Q(√2)"
    text = edited(to_json(doc), lambda d: d.update(mode=mode))
    with pytest.raises(ValueError, match=r"'mode' is .* but the vectors are in Q\(√2\)"):
        from_json(text)


def test_cli_verify_exits_two_on_a_wrong_mode(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert main(["project", "--solid", "tetrahedron", "--out", str(path)]) == 0
    text = edited(path.read_text(encoding="utf-8"), lambda d: d.update(mode="banana"))
    path.write_text(text, encoding="utf-8")
    assert main(["verify", "--in", str(path)]) == 2
    assert "error: 'mode' is 'banana', but the vectors are in Q(√2)" in capsys.readouterr().err


NON_FINITE = [
    pytest.param(math.nan, "nan", id="nan"),
    pytest.param(math.inf, "inf", id="inf"),
    pytest.param(-math.inf, "-inf", id="-inf"),
    pytest.param(-(10**400), "-inf", id="int-beyond-float-range"),
]


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("bad,name", NON_FINITE)
def test_cli_exits_two_on_a_non_finite_number(tmp_path, capsys, bad, name, command):
    # a float depth-1 tetrahedron document with one inversive coordinate set to ``bad``
    path = tmp_path / "t.json"
    argv = ["cluster", "--solid", "tetrahedron", "--initial=-3.0,5.0,8.0"]
    assert main([*argv, "--depth", "1", "--mode", "float", "--out", str(path)]) == 0
    set_bad = lambda d: d["entries"][1]["inversive"].__setitem__(0, bad)
    path.write_text(edited(path.read_text(encoding="utf-8"), set_bad), encoding="utf-8")
    capsys.readouterr()
    out = str(tmp_path / "t.svg")
    argv = [command, "--in", str(path)] + (["--out", out] if command == "render" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: float document holds a non-finite number {name}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("initial", ["0,0,1e-160", "0.0,0.0,5.896640133697064e-230"])
def test_cli_refuses_a_float_seed_whose_term_squares_overflow(tmp_path, capsys, initial):
    # a refusal, not a traceback
    path = tmp_path / "c.json"
    argv = ["cluster", "--solid", "cube", "--mode", "float", f"--initial={initial}",
            "--depth", "0", "--out", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("text", ["5\n", "\n5", " 5", "5 ", "٣", "1/٣", "1+1√٥", "1/2\n+1√2"])
def test_from_json_refuses_a_scalar_outside_the_strict_grammar(text):
    doc = edited(to_json(cluster_doc((0, 0, 1), 1)),
                 lambda d: d["entries"][2]["inversive"].__setitem__(1, text))
    with pytest.raises(ValueError) as err:
        from_json(doc)
    assert str(err.value) == f"malformed exact scalar {text!r}"


@pytest.mark.parametrize("mode", ["float", "Q", "Q(√5)"])
def test_an_empty_document_keeps_its_declared_mode(mode):
    text = json.dumps({"dimension": 2, "mode": mode, "entries": []})
    doc = from_json(text)
    assert doc.mode == mode and doc.entries == ()
    assert from_json(to_json(doc)) == doc


def edited(text, change) -> str:
    """The JSON text after ``change`` has edited its parsed payload."""
    payload = json.loads(text)
    change(payload)
    return json.dumps(payload)


def first_with(payload, key) -> dict:
    return next(e for e in payload["entries"] if key in e)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("solid,initial", README_CLI_SEEDS)
def test_document_round_trip_keeps_json_and_svg(solid, initial, mode):
    seed = packing_from_curvatures(solid_from_name(solid), parse_initial(initial, mode))
    cluster = generate_cluster(seed, apollonian_group_from_packing(seed), 1)
    doc = document_from_cluster(cluster, solid=solid)
    text = to_json(doc)
    again = from_json(text)
    assert to_json(again) == text
    assert render_svg(again) == render_svg(doc)
    # the cluster's entries are the document's, and survive the round trip
    assert list(cluster) == list(doc.entries) == list(again.entries)


def test_float_documents_must_hold_numbers():
    doc = cluster_doc((1.0, 2.0, 3.0), 1)
    text = to_json(doc).replace("\"mode\": \"float\"", "\"mode\": \"float\"")
    payload = json.loads(text)
    payload["entries"][0]["curvature"] = "3/2"
    with pytest.raises(ValueError):
        from_json(json.dumps(payload))


# -- SVG rendering ------------------------------------------------------------


def one_disk_doc(curvature=Fraction(1), center=(0, 0)):
    arr = BallArrangement(
        (ball_from_geometry(2, center=center, curvature=curvature),)
    )
    return document_from_arrangement(arr)


def test_render_single_disk_is_one_circle():
    svg = render_svg(one_disk_doc())
    assert svg.count("<circle") == 1
    assert svg.count("<path") == 0
    assert 'cx="0" cy="0" r="1"' in svg
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_render_standard_frame_mixes_shapes():
    doc = cluster_doc((0, 0, 1), 0)
    svg = render_svg(doc)
    assert svg.count("<polygon") == 2  # the two half-planes
    assert svg.count("<circle") == 2
    assert svg.count("evenodd") == 0


def test_render_enclosing_disk_uses_evenodd_complement():
    doc = cluster_doc((-3, 5, 8), 0)
    svg = render_svg(doc)
    assert svg.count('fill-rule="evenodd"') == 1
    assert svg.count("<circle") == 3


def test_render_is_byte_identical_across_runs():
    doc = cluster_doc((-3, 5, 8), 2)
    spec = RenderSpec(viewport=(-2, -2, 4, 4), stroke_width=0.01)
    assert render_svg(doc, spec) == render_svg(doc, spec)


def test_render_orbit_fills_follow_the_palette():
    doc = cluster_doc((-3, 5, 8), 1)
    svg = render_svg(doc)
    for e, line in zip(doc.entries, svg.splitlines()[1:-1]):
        assert f'fill="{DEFAULT_PALETTE[e.orbit % len(DEFAULT_PALETTE)]}"' in line


def test_render_element_count_and_order_match_the_document():
    doc = cluster_doc((-3, 5, 8), 1)
    svg = render_svg(doc)
    lines = svg.splitlines()
    assert len(lines) == len(doc.entries) + 2
    for e, line in zip(doc.entries, lines[1:-1]):
        if e.geometry.kind == "halfspace":
            assert line.startswith("<polygon")
        elif approx(e.curvature) < 0:
            assert line.startswith("<path")
        else:
            assert line.startswith("<circle")


def test_render_clips_oversized_disks_when_asked():
    doc = one_disk_doc()
    spec = RenderSpec(max_radius_clip=0.5)
    svg = render_svg(doc, spec)
    assert svg.count("<circle") == 0


def test_render_rejects_nonplanar_documents():
    arr = project(regular_edge_scribed(CUBE))  # d = 2 cube is fine ...
    doc = document_from_arrangement(arr)
    svg = render_svg(doc)
    assert svg.count("<circle") + svg.count("<path") == 8
    from ballpack.polytopes import Solid

    arr4 = project(regular_edge_scribed(Solid("simplex", 4)))
    doc4 = document_from_arrangement(arr4)
    with pytest.raises(ValueError):
        render_svg(doc4)


def test_render_spec_validates_viewport_and_palette():
    with pytest.raises(ValueError):
        RenderSpec(viewport=(0, 0, -1, 4))
    with pytest.raises(ValueError):
        RenderSpec(viewport=(0, 0, 4, 0))
    with pytest.raises(ValueError):
        RenderSpec(palette=())


# -- the curvature token grammar ----------------------------------------------


@pytest.mark.parametrize(
    "token,value",
    [
        ("-3", Fraction(-3)),
        ("5/2", Fraction(5, 2)),
        ("phi", PHI),
        ("phi+1", PHI + 1),
        ("2phi", 2 * PHI),
        ("-1+1/2phi", Fraction(-1) + PHI / 2),
        ("sqrt2", SQRT2),
        ("3sqrt2-1", 3 * SQRT2 - 1),
        ("sqrt8", 2 * SQRT2),
        ("sqrt4", Fraction(2)),
        ("sqrt0+1", Fraction(1)),
    ],
)
def test_curvature_tokens(token, value):
    got = parse_exact_curvature(token)
    assert got == value
    assert type(got) is type(value)


@pytest.mark.parametrize("bad", ["", "x", "1..2", "phi5", "sqrt", "1,2", "1/0", "00/00", "1/0phi"])
def test_curvature_tokens_reject_garbage(bad):
    with pytest.raises(ValueError):
        parse_exact_curvature(bad)


def test_parse_initial_modes():
    assert parse_initial("-3, 5, 8", "exact") == (-3, 5, 8)
    ks = parse_initial("1.5,2,3", "float")
    assert ks == (1.5, 2.0, 3.0) and all(isinstance(k, float) for k in ks)
    with pytest.raises(ValueError):
        parse_initial("1,2", "exact")
    with pytest.raises(ValueError):
        parse_initial("1.5,2,3", "exact")


# -- the command line ---------------------------------------------------------


def test_cli_spectra_prints_the_cube_signature(capsys):
    assert main(["spectra", "--solid", "cube"]) == 0
    assert capsys.readouterr().out == "-16:1 0:4 8:3\n"


@pytest.mark.parametrize("name", ["simplex-x", "ngon-x", "5.5-gon", "cube-"])
def test_cli_names_a_malformed_solid(name, capsys):
    assert main(["spectra", "--solid", name]) == 2
    assert capsys.readouterr() == ("", f"error: unknown solid '{name}'\n")


def test_cli_squares_lists_perfect_squares(capsys):
    assert main(["squares", "--p", "3", "--n-max", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0 0", "1 1", "2 4", "3 9", "4 16", "5 25"]


@pytest.mark.parametrize("p", [4, 5])
def test_cli_squares_other_walks(p, capsys):
    assert main(["squares", "--p", str(p), "--n-max", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in out] == [str(n * n) for n in range(7)]


def test_cli_project_then_verify(tmp_path, capsys):
    doc = tmp_path / "tetra.json"
    assert main(["project", "--solid", "tetrahedron", "--out", str(doc)]) == 0
    assert main(["verify", "--in", str(doc)]) == 0
    out = capsys.readouterr().out
    assert "packing: ok" in out
    assert "flags: ok" in out
    loaded = from_json(doc.read_text(encoding="utf-8"))
    assert loaded.solid == "tetrahedron"
    assert loaded.seed["center"] == "none"


@pytest.mark.parametrize(
    "solid", ["octahedron", "icosahedron", "dodecahedron", "ngon-5", "ngon-6", "ngon-7", "ngon-8", "ngon-9"]
)
def test_cli_verify_passes_on_every_projection(solid, tmp_path):
    doc = tmp_path / "s.json"
    assert main(["project", "--solid", solid, "--out", str(doc)]) == 0
    assert main(["verify", "--in", str(doc)]) == 0


def test_cli_centered_projection_is_float_and_verifies(tmp_path):
    doc = tmp_path / "v.json"
    assert (
        main(
            ["project", "--solid", "cube", "--center", "vertex", "--out", str(doc)]
        )
        == 0
    )
    loaded = from_json(doc.read_text(encoding="utf-8"))
    assert loaded.mode == "float"
    ks = sorted(approx(e.curvature) for e in loaded.entries)
    assert ks[0] < 0 < ks[1]
    assert main(["verify", "--in", str(doc)]) == 0


def test_cli_cluster_document_is_exact_and_verifies(tmp_path, capsys):
    doc = tmp_path / "c.json"
    rc = main(
        [
            "cluster",
            "--solid",
            "tetrahedron",
            "--initial",
            "-3,5,8",
            "--depth",
            "3",
            "--out",
            str(doc),
        ]
    )
    assert rc == 0
    loaded = from_json(doc.read_text(encoding="utf-8"))
    # coordinates live in the projection's field; curvatures are integers
    assert loaded.mode == "Q(√2)"
    assert len(loaded.entries) == 56
    assert loaded.seed == {
        "kind": "cluster",
        "solid": "tetrahedron",
        "initial": ["-3", "5", "8"],
        "depth": 3,
        "flavor": "A",
    }
    # every curvature is a plain integer string in the JSON payload
    payload = json.loads(doc.read_text(encoding="utf-8"))
    assert all(
        "/" not in e["curvature"] and "√" not in e["curvature"]
        for e in payload["entries"]
    )
    assert main(["verify", "--in", str(doc)]) == 0


def test_cli_cluster_accepts_golden_curvatures(tmp_path):
    doc = tmp_path / "d.json"
    rc = main(
        [
            "cluster",
            "--solid",
            "dodecahedron",
            "--initial",
            "phi+1,-1,2phi",
            "--depth",
            "1",
            "--out",
            str(doc),
        ]
    )
    assert rc == 0
    loaded = from_json(doc.read_text(encoding="utf-8"))
    assert loaded.mode == "Q(√5)"
    assert len(loaded.entries) == 200


def test_cli_dual_of_the_cube_is_an_octahedron(tmp_path):
    primal = tmp_path / "cube.json"
    out = tmp_path / "dual.json"
    assert main(["project", "--solid", "cube", "--out", str(primal)]) == 0
    assert main(["dual", "--in", str(primal), "--out", str(out)]) == 0
    loaded = from_json(out.read_text(encoding="utf-8"))
    assert loaded.solid == "octahedron"
    assert len(loaded.entries) == 6
    assert loaded.seed["primal"] == "cube"
    assert main(["verify", "--in", str(out), "--checks", "packing"]) == 0


def test_cli_dual_requires_a_projection_document(tmp_path):
    doc = tmp_path / "c.json"
    main(
        [
            "cluster",
            "--solid",
            "tetrahedron",
            "--initial",
            "0,0,1",
            "--depth",
            "1",
            "--out",
            str(doc),
        ]
    )
    assert main(["dual", "--in", str(doc), "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("solid", ["triangle", "square", "ngon-5"])
def test_dual_refuses_polygons(solid, tmp_path, capsys):
    """An edge-scribed polygon's polar has its vertices on the unit circle."""
    why = "a polygon has no dual arrangement: its polar's vertices lie on the unit circle"
    with pytest.raises(ValueError, match=why):
        dual(project(regular_edge_scribed(solid_from_name(solid))))
    doc = tmp_path / "p.json"
    assert main(["project", "--solid", solid, "--out", str(doc)]) == 0
    capsys.readouterr()
    assert main(["dual", "--in", str(doc), "--out", str(tmp_path / "d.json")]) == 2
    assert capsys.readouterr().err == f"error: {why}\n"


@pytest.mark.parametrize("solid", ["triangle", "square", "6-gon", "7-gon"])
def test_with_dual_and_cluster_refuse_polygons_with_the_dual_reason(solid, tmp_path, capsys):
    """No facet balls to attach, so no seed to grow: the reason is dual's."""
    why = "a polygon has no dual arrangement: its polar's vertices lie on the unit circle"
    with pytest.raises(ValueError, match=why):
        with_dual(project(regular_edge_scribed(solid_from_name(solid))))
    out = str(tmp_path / "c.json")
    assert main(["cluster", "--solid", solid, "--initial=1,1,1", "--depth", "1", "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {why}\n"


@pytest.mark.parametrize("center", ["none", "vertex", "edge", "face"])
@pytest.mark.parametrize(
    "solid", ["simplex-4", "cube-4", "orthoplex-4", "simplex-5", "cube-5", "orthoplex-5"]
)
def test_dual_refuses_solids_beyond_polyhedra(solid, center, tmp_path, capsys):
    """The polar of an edge-scribed polytope of dimension 4 or 5 is not
    edge-scribed, so its facet balls make no packing to check."""
    doc = tmp_path / "p.json"
    assert main(["project", "--solid", solid, "--center", center, "--out", str(doc)]) == 0
    capsys.readouterr()
    assert main(["dual", "--in", str(doc), "--out", str(tmp_path / "d.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {solid} has no dual arrangement: the polar of an edge-scribed "
        "polytope is edge-scribed only for polyhedra\n"
    )
    assert not (tmp_path / "d.json").exists()


def test_cli_integrality_certificates(capsys):
    assert (
        main(["integrality", "--solid", "tetrahedron", "--initial", "-3,5,8"]) == 0
    )
    assert "certificate: integral" in capsys.readouterr().out
    assert (
        main(["integrality", "--solid", "icosahedron", "--initial", "-4,8,9"]) == 0
    )
    assert "certificate: phi-integral" in capsys.readouterr().out


def test_cli_integrality_certify_depth(capsys):
    rc = main(
        [
            "integrality",
            "--solid",
            "octahedron",
            "--initial",
            "-2,4,5",
            "--certify-depth",
            "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "certificate: integral" in out
    assert "depth-3 curvatures in Z: yes" in out


@pytest.mark.parametrize("solid", ["icosahedron", "dodecahedron"])
def test_cli_integrality_of_a_seed_outside_the_ring_is_not_certified(solid, capsys):
    # sqrt 2 lies outside Z[phi]: the ring test answers before any arithmetic
    # mixes Q(sqrt 2) with the solid's Q(sqrt 5)
    assert main(["integrality", "--solid", solid, "--initial=sqrt2,1,1"]) == 1
    assert capsys.readouterr() == ("certificate: not-certified\n", "")


ZERO_DENOMINATORS = ("1/0", "00/00")


def zero_denominator_error(bad: str) -> str:
    # float() reads no such token either, so float mode keeps the exact error
    return f"error: malformed curvature {bad!r}\n"


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("bad", ZERO_DENOMINATORS)
def test_cli_cluster_refuses_a_zero_denominator(bad, mode, tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = ["cluster", "--solid", "tetrahedron", f"--initial={bad},1,1", "--mode", mode]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", zero_denominator_error(bad))
    assert not out.exists()


@pytest.mark.parametrize("bad", ZERO_DENOMINATORS)
def test_cli_integrality_refuses_a_zero_denominator(bad, capsys):
    assert main(["integrality", "--solid", "tetrahedron", f"--initial={bad},1,1"]) == 2
    assert capsys.readouterr() == ("", zero_denominator_error(bad))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_cli_verify_refuses_a_seed_record_with_a_zero_denominator(mode, tmp_path, capsys):
    path = tmp_path / "c.json"
    argv = ["cluster", "--solid", "tetrahedron", "--initial=-3,5,8", "--depth", "1"]
    assert main([*argv, "--mode", mode, "--out", str(path)]) == 0
    set_initial = lambda d: d["seed"].update(initial=["1/0", "5", "8"])  # noqa: E731
    path.write_text(edited(path.read_text(encoding="utf-8"), set_initial), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--in", str(path), "--checks", "descartes"]) == 2
    assert capsys.readouterr() == ("", zero_denominator_error("1/0"))


def test_cli_integrality_refuses_a_negative_certify_depth_before_any_output(capsys):
    argv = ["integrality", "--solid", "tetrahedron", "--initial=-3,5,8", "--certify-depth", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: depth must be nonnegative\n")


@pytest.mark.parametrize("bad", ["abc", "1/0phi", "sqrt"])
def test_cli_float_cluster_keeps_the_exact_parsers_error(bad, tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = ["cluster", "--solid", "tetrahedron", f"--initial=1,{bad},1", "--mode", "float"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: malformed curvature {bad!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400", "1" + "0" * 400])
def test_cli_float_cluster_refuses_a_curvature_that_is_not_finite(bad, tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = ["cluster", "--solid", "tetrahedron", f"--initial={bad},1,1", "--mode", "float"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: curvature {bad!r} is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("initial", ["-3,,5,8", "-3,5,8,", ",-3,5,8", "-3, ,5", "-3,5"])
def test_cli_cluster_and_integrality_refuse_an_empty_initial_token(initial, mode, tmp_path, capsys):
    error = f"error: --initial needs three comma-separated values, got {initial!r}\n"
    out = tmp_path / "c.json"
    argv = ["cluster", "--solid", "tetrahedron", f"--initial={initial}", "--depth", "1"]
    assert main([*argv, "--mode", mode, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", error)
    assert not out.exists()
    argv = ["integrality", "--solid", "tetrahedron", f"--initial={initial}", "--certify-depth", "1"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", error)


def test_cli_cluster_records_the_stripped_tokens_it_read(tmp_path):
    out = tmp_path / "c.json"
    argv = ["cluster", "--solid", "tetrahedron", "--initial=-3, 5 ,8", "--depth", "1"]
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["seed"]["initial"] == ["-3", "5", "8"]


@pytest.mark.parametrize("token", ["sqrt2+sqrt3", "1/2sqrt2+1/3sqrt5+7", "phi+sqrt2"])
def test_float_curvature_adds_the_floats_of_terms_in_two_fields(token, tmp_path, capsys):
    with pytest.raises(ValueError, match="cannot mix fields"):
        parse_exact_curvature(token)
    terms = {
        "sqrt2+sqrt3": [math.sqrt(2), math.sqrt(3)],
        "1/2sqrt2+1/3sqrt5+7": [math.sqrt(2) / 2, math.sqrt(5) / 3, 7.0],
        "phi+sqrt2": [(1 + math.sqrt(5)) / 2, math.sqrt(2)],
    }[token]
    assert parse_initial(f"{token},5,8", "float")[0] == pytest.approx(math.fsum(terms), rel=1e-15)

    out = tmp_path / "c.json"
    argv = ["cluster", "--solid", "tetrahedron", f"--initial={token},5,8", "--depth", "1"]
    assert main([*argv, "--mode", "float", "--out", str(out)]) == 0
    assert main(["verify", "--in", str(out)]) == 0
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot mix fields")


@pytest.mark.parametrize(
    "initial, fields",
    [("5+2sqrt5,20+4sqrt2,15", (5, 2)), ("15,20+4sqrt2,5+2sqrt5", (2, 5))],
)
def test_cli_cluster_refuses_an_initial_in_two_fields_naming_them_in_its_order(
    initial, fields, tmp_path, capsys
):
    # each token lies in one field; the Gram solve is not singular, and the
    # refusal is not relabeled as one
    out = tmp_path / "c.json"
    argv = ["cluster", "--solid", "cube", f"--initial={initial}", "--depth", "1", "--out", str(out)]
    assert main(argv) == 2
    error = "error: cannot mix fields Q(sqrt {}) and Q(sqrt {})\n".format(*fields)
    assert capsys.readouterr() == ("", error)
    assert not out.exists()


@pytest.mark.parametrize("token", ["1+phi", "2sqrt2-1", "5/3", "1/2sqrt2+sqrt8", "sqrt2-sqrt2+sqrt3"])
def test_float_curvature_of_a_one_field_token_is_its_exact_value_rounded(token):
    assert parse_initial(f"{token},5,8", "float")[0] == approx(parse_exact_curvature(token))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("solid, d", [("orthoplex-4", 3), ("cube-5", 4)])
def test_cli_cluster_refuses_a_seed_beyond_polyhedra(solid, d, mode, tmp_path, capsys):
    """In d >= 3 three curvatures leave a family of seeds, not one."""
    why = (
        f"three curvatures do not determine a seed of {solid}: "
        f"in dimension {d} they leave a family of seeds"
    )
    with pytest.raises(ValueError, match=why):
        packing_from_curvatures(solid_from_name(solid), (-1, 2, 2))
    out = tmp_path / "c.json"
    argv = ["cluster", "--solid", solid, "--initial=-1,2,2", "--depth", "1", "--mode", mode]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {why}\n")
    assert not out.exists()


def test_cli_integrality_uncertified_exits_one(capsys):
    rc = main(["integrality", "--solid", "tetrahedron", "--initial", "1,2,3"])
    assert rc == 1
    assert "certificate: not-certified" in capsys.readouterr().out


def test_cli_verify_flags_failure_exit_code(tmp_path):
    bad = BallArrangement(
        (
            ball_from_geometry(2, center=(0.0, 0.0), curvature=1.0),
            ball_from_geometry(2, center=(0.5, 0.0), curvature=1.0),
        )
    )
    doc = document_from_arrangement(bad)
    path = tmp_path / "bad.json"
    path.write_text(to_json(doc), encoding="utf-8")
    assert main(["verify", "--in", str(path), "--checks", "packing"]) == 1


@pytest.mark.parametrize(
    "edit",
    [
        lambda e: e.update(radius="7"),
        lambda e: e["center"].__setitem__(0, "3/2"),
    ],
    ids=["radius", "center"],
)
def test_cli_verify_and_render_derive_geometry_from_inversive(edit, tmp_path, capsys):
    path, edited_path = tmp_path / "o.json", tmp_path / "e.json"
    argv = ["cluster", "--solid", "octahedron", "--initial=-2,4,5", "--depth", "1"]
    assert main(argv + ["--out", str(path)]) == 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(first_with(payload, "radius"))
    edited_path.write_text(json.dumps(payload), encoding="utf-8")

    def outputs(doc):
        capsys.readouterr()
        assert main(["verify", "--in", str(doc)]) == 0
        verified = capsys.readouterr().out
        svg = tmp_path / "out.svg"
        assert main(["render", "--in", str(doc), "--out", str(svg)]) == 0
        return verified, svg.read_bytes()

    assert outputs(edited_path) == outputs(path)


def test_cli_malformed_documents_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 2, "mode": "Q", "entries": [5]}', encoding="utf-8")
    assert main(["verify", "--in", str(path)]) == 2
    assert main(["render", "--in", str(path), "--out", str(tmp_path / "bad.svg")]) == 2
    assert "error: entry is not a JSON object" in capsys.readouterr().err
    path.write_text('{"dimension": [2], "mode": "Q", "entries": []}', encoding="utf-8")
    assert main(["verify", "--in", str(path)]) == 2
    assert main(["render", "--in", str(path), "--out", str(tmp_path / "bad.svg")]) == 2
    assert "error: 'dimension' is not a JSON integer" in capsys.readouterr().err


def test_cli_verify_checks_every_ball_norm_beyond_the_sampled_windows(tmp_path):
    path = tmp_path / "c.json"
    argv = ["cluster", "--solid", "tetrahedron", "--initial", "-3,5,8"]
    assert main(argv + ["--depth", "5", "--out", str(path)]) == 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert len(payload["entries"]) > 248
    last = payload["entries"][-1]
    last["inversive"] = [
        scalar_to_text(2 * scalar_from_text(x)) for x in last["inversive"]
    ]
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["verify", "--in", str(path), "--checks", "descartes,soddy"]) == 2


@pytest.mark.parametrize("solid,initial", README_CLI_SEEDS)
def test_cli_float_cluster_round_trips_through_verify(solid, initial, tmp_path):
    path = tmp_path / "f.json"
    argv = ["cluster", "--solid", solid, f"--initial={initial}", "--mode", "float"]
    assert main(argv + ["--depth", "1", "--out", str(path)]) == 0
    assert main(["verify", "--in", str(path)]) == 0
    assert main(argv + ["--depth", "2", "--out", str(path)]) == 0
    assert main(["verify", "--in", str(path), "--checks", "descartes,soddy"]) == 0


@pytest.mark.parametrize(
    "solid,initial,codes",
    [
        # float rounding of a seed grows with its curvatures
        ("tetrahedron", "5516.752999199303,-2.505939589967195,16", {1: (0, 2)}),
        # ill-conditioned: the seed keeps its curvatures to about 1.2e-7 of
        # their size; with the cancelling root formula it drifted by 3.6e-7
        ("dodecahedron", "-23,2674.385223998608,7894.719427611508", {1: (0, 2)}),
        # verified at depth 1; at depth 2 the curvatures pass 1e5, where the
        # float packing check can no longer classify pairs
        ("icosahedron", "-4,8,9", {1: (0,), 2: (2,)}),
    ],
)
def test_cli_float_seeds_with_large_curvatures_exit_cleanly(solid, initial, codes, tmp_path, capsys):
    """``codes`` maps each depth to the exit codes that ``verify`` may give on
    the float cluster, which ``cluster`` must write."""
    path = str(tmp_path / "s.json")
    argv = ["cluster", "--solid", solid, f"--initial={initial}", "--mode", "float"]
    for depth, verify_codes in codes.items():
        assert main(argv + ["--depth", str(depth), "--out", path]) == 0
        capsys.readouterr()
        rc = main(["verify", "--in", path])
        err = capsys.readouterr().err
        assert rc in verify_codes
        assert (rc == 2) == err.startswith("error: ")
    if solid == "icosahedron":
        assert err.startswith("error: float balls too large to classify (scale ")


def test_cli_float_cluster_that_overflows_is_refused(tmp_path, capsys):
    out = tmp_path / "o.json"
    argv = ["cluster", "--solid", "dodecahedron", "--mode", "float",
            "--initial=0.0,0.0,8.934313095693387e-69", "--depth", "2", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: float coordinates overflow at depth 2\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "check,line",
    [
        ("descartes", "descartes: ok (1 windows, max relative residual 0, 488 balls match the record)"),
        ("soddy", "soddy: ok (45 tangent tuples, max relative residual 0, among the first 48 of 488 balls)"),
    ],
    ids=["descartes", "soddy"],
)
def test_cli_verify_says_what_it_sampled(check, line, tmp_path, capsys):
    path = tmp_path / "c.json"
    argv = ["cluster", "--solid", "tetrahedron", "--initial=-3,5,8", "--depth", "5"]
    assert main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(path), "--checks", check]) == 0
    assert capsys.readouterr().out.splitlines() == [line]


def test_cli_verify_adds_no_sampling_note_when_it_saw_everything(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert main(["project", "--solid", "tetrahedron", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(path), "--checks", "descartes,soddy"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "descartes: ok (1 windows, max relative residual 0, 4 balls match the record)",
        "soddy: ok (1 tangent tuples, max relative residual 0)",
    ]


def test_cli_verify_rejects_inapplicable_or_unknown_checks(tmp_path):
    doc = tmp_path / "c.json"
    main(
        [
            "cluster",
            "--solid",
            "tetrahedron",
            "--initial",
            "-3,5,8",
            "--depth",
            "1",
            "--out",
            str(doc),
        ]
    )
    assert main(["verify", "--in", str(doc), "--checks", "flags"]) == 2
    assert main(["verify", "--in", str(doc), "--checks", "bogus"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["project", "--solid", "heptagon", "--out", "x.json"],
        ["cluster", "--solid", "cube", "--initial", "1,2", "--out", "x.json"],
        ["cluster", "--solid", "cube", "--initial", "1.5,2,3", "--out", "x.json"],
        ["verify", "--in", "does-not-exist.json"],
        ["cluster", "--solid", "cube"],
        ["squares", "--p", "7"],
        ["no-such-command"],
    ],
)
def test_cli_usage_errors_exit_two(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    capsys.readouterr()


def test_cli_render_writes_deterministic_svg(tmp_path):
    doc = tmp_path / "c.json"
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    main(
        [
            "cluster",
            "--solid",
            "tetrahedron",
            "--initial",
            "-3,5,8",
            "--depth",
            "2",
            "--out",
            str(doc),
        ]
    )
    assert main(["render", "--in", str(doc), "--out", str(svg1)]) == 0
    assert main(["render", "--in", str(doc), "--out", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    assert svg1.read_text(encoding="utf-8").count("<circle") == 19


def test_cli_render_spec_file_controls_the_viewport(tmp_path):
    doc = tmp_path / "c.json"
    spec = tmp_path / "spec.json"
    out = tmp_path / "out.svg"
    main(
        [
            "cluster",
            "--solid",
            "tetrahedron",
            "--initial",
            "0,0,1",
            "--depth",
            "0",
            "--out",
            str(doc),
        ]
    )
    spec.write_text(
        json.dumps({"viewport": [-1, -1, 2, 2], "stroke_width": 0.005}),
        encoding="utf-8",
    )
    assert main(["render", "--in", str(doc), "--spec", str(spec), "--out", str(out)]) == 0
    assert 'viewBox="-1 -1 2 2"' in out.read_text(encoding="utf-8")
    spec.write_text(json.dumps({"not_a_key": 1}), encoding="utf-8")
    assert main(["render", "--in", str(doc), "--spec", str(spec), "--out", str(out)]) == 2


@pytest.mark.parametrize(
    "payload,error",
    [
        ([-1, -1, 2, 2], "the render spec is not a JSON object"),
        ({"viewport": 5}, "render spec key 'viewport' is not a list of 4 numbers"),
        ({"palette": 7}, "render spec key 'palette' is not a list of strings"),
        ({"viewport": [0, 0, "a", 1]}, "render spec key 'viewport' is not a list of 4 numbers"),
    ],
    ids=["array", "viewport-number", "palette-number", "viewport-string"],
)
def test_cli_render_refuses_a_spec_of_the_wrong_json_type(payload, error, tmp_path, capsys):
    doc, spec = tmp_path / "c.json", tmp_path / "spec.json"
    assert main(["cluster", "--solid", "tetrahedron", "--initial=0,0,1", "--depth", "0", "--out", str(doc)]) == 0
    spec.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    argv = ["render", "--in", str(doc), "--spec", str(spec), "--out", str(tmp_path / "o.svg")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_cli_out_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("BALLPACK_OUT_DIR", str(tmp_path / "outs"))
    assert main(["project", "--solid", "cube", "--out", "cube.json"]) == 0
    assert (tmp_path / "outs" / "cube.json").exists()
